"""Request-scoped trace contexts: one id from socket to drain.

A multi-tenant request crosses three execution domains — the asyncio
loop (admission, routing), a pinned worker thread (the session
operation), and the runtime's drain machinery (which may itself fan out
to partition-drain threads).  Each domain has its own instrumentation
(serve counters, event-ring records and the span trees folded from
them), but without a shared identifier the three stories cannot be
stitched back together after the fact.

This module is that identifier.  A :class:`TraceContext` is minted per
protocol request (``trace_id`` names the request's whole journey,
``request_id`` echoes the client's correlation id), installed with
:func:`trace_scope`, and read back with :func:`current_trace` by every
consumer that wants to tag what it records:

* the event ring (:mod:`repro.obs.flight`) keeps the context with each
  timed record, so the flight view tags each record with the ids and
  the span fold stamps them into each span's ``meta`` (and therefore
  into the Chrome-trace ``args``);
* the serve layer echoes the ids in error responses so a client-side
  failure can be matched to server-side dumps.

The context is held in a :class:`contextvars.ContextVar`, so concurrent
requests interleaving on one asyncio loop each see their own context.
Crossing into a worker thread does *not* propagate contextvars by
itself — the worker pool (:mod:`repro.serve.dispatch`) captures
``contextvars.copy_context()`` at submit time and runs the job inside
it, which carries the trace (and any other context) across the hop.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from contextvars import ContextVar
from typing import Any, Dict, Iterator, Optional

__all__ = [
    "TraceContext",
    "current_trace",
    "mint_trace_id",
    "trace_scope",
]

#: The ambient trace of the executing request (None outside any scope).
_CURRENT: "ContextVar[Optional[TraceContext]]" = ContextVar(
    "alphonse_trace", default=None
)

#: Process-wide uniqueness for minted ids: one random-ish prefix per
#: process (so ids from two servers never collide in a merged log) plus
#: a lock-free counter.
_PREFIX = os.urandom(4).hex()
_SEQUENCE = itertools.count(1)


def mint_trace_id() -> str:
    """A fresh process-unique trace id (``<hex-prefix>-<n>``)."""
    return f"{_PREFIX}-{next(_SEQUENCE)}"


class TraceContext:
    """The identity of one in-flight request.

    ``trace_id`` is minted by the server and names the end-to-end
    journey; ``request_id`` is the client's correlation id (its ``id``
    field) or a server-minted fallback; ``session``/``op`` carry the
    routing facts most dumps want alongside the ids.
    """

    __slots__ = ("trace_id", "request_id", "session", "op")

    def __init__(
        self,
        trace_id: Optional[str] = None,
        request_id: Optional[str] = None,
        session: Optional[str] = None,
        op: Optional[str] = None,
    ) -> None:
        self.trace_id = trace_id if trace_id is not None else mint_trace_id()
        self.request_id = request_id
        self.session = session
        self.op = op

    def ids(self) -> Dict[str, Any]:
        """Just the correlation ids, for stamping into span/record meta."""
        out: Dict[str, Any] = {"trace_id": self.trace_id}
        if self.request_id is not None:
            out["request_id"] = self.request_id
        return out

    def to_dict(self) -> Dict[str, Any]:
        out = self.ids()
        if self.session is not None:
            out["session"] = self.session
        if self.op is not None:
            out["op"] = self.op
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<trace {self.trace_id} request={self.request_id!r}>"


def current_trace() -> Optional[TraceContext]:
    """The executing request's context, or None outside any scope.

    Works on the asyncio loop (per-task), on worker threads entered via
    the dispatch shim (the submitted job runs inside a copied context),
    and on partition-drain threads only if they were started inside the
    scope — drain pools are long-lived, so drain *spans* instead pick up
    the ids from the emitting thread, which is the worker.
    """
    return _CURRENT.get()


@contextlib.contextmanager
def trace_scope(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Install ``ctx`` as the ambient trace for the ``with`` body."""
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)
