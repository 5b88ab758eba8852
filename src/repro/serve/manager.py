"""Session residency: LRU eviction to checkpoint, lazy resurrection.

The manager bounds how many tenant runtimes are live at once.  A cold
session opens at once, even with ``max_live_sessions`` resident: the
least-recently-used *idle* session is evicted when the request that
overflowed the live set completes, behind its reply, so no request
waits on another tenant's checkpoint.  A cold open that finds the set
already over the limit evicts first, so at most ``max_live_sessions +
1`` sessions are live, plus busy ones.  Sessions with in-flight requests
are never evicted — the live set transiently overflows instead, because
blocking admission on an unrelated tenant's recomputation would couple
tenants the whole design exists to decouple.  A later request for an
evicted tenant resurrects it from its checkpoint (plus WAL tail)
transparently.

An eviction takes the victim out of the live table, counts it and
queues its close (checkpoint, then teardown) on the victim's own worker
in one loop step.  Close and open of one sid land on the same worker
queue, so a resurrection can never overtake the eviction that is still
checkpointing the same directory.  A failed close is reported against
the victim (a flight note and ``serve_errors_total``), never against
the request that triggered it; :meth:`SessionManager.wait_closed`
waits for the queued closes (shutdown and promotion call it).

Concurrency discipline: every field of this class is read and mutated
**only on the asyncio loop thread**.  The blocking work — opening,
resurrecting, closing — is shipped to the session's pinned worker via
the :class:`~repro.serve.dispatch.WorkerPool`.  In-progress opens are
deduplicated through ``_opening`` futures so a burst of requests for a
cold session triggers exactly one load.
"""

from __future__ import annotations

import asyncio
import contextvars
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Set

from ..obs.flight import FlightRecorder
from ..spreadsheet import SpreadsheetLoadError
from .config import ServeConfig
from .dispatch import WorkerPool
from .metrics import ServeMetrics
from .protocol import SessionOpError
from .session import Session

__all__ = ["SessionManager"]


class SessionManager:
    """Loop-thread owner of the live-session table."""

    def __init__(
        self,
        config: ServeConfig,
        pool: WorkerPool,
        metrics: ServeMetrics,
        flight: FlightRecorder,
    ) -> None:
        self.config = config
        self.pool = pool
        self.metrics = metrics
        #: The server's ring: failed opens and evictions are noted here
        #: in full (a client sees only the session and the reason).
        self.flight = flight
        #: Set by the server when replication is on; every session it
        #: opens (or resurrects) attaches to it and ships from then on.
        self.shipper: Any = None
        #: Live sessions, LRU order (oldest first).
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()
        #: In-flight request count per sid — admission control's mailbox
        #: depth, and the "is it idle?" test eviction relies on.
        self.inflight: Dict[str, int] = {}
        #: sid -> future resolving to the Session being opened.
        self._opening: Dict[str, "asyncio.Future[Session]"] = {}
        #: Queued eviction closes, until each has finished.
        self._closing: Set["asyncio.Future[None]"] = set()

    # -- introspection -------------------------------------------------

    @property
    def live(self) -> int:
        return len(self._sessions)

    def stats(self) -> List[Dict[str, Any]]:
        out = []
        for sid, session in self._sessions.items():
            entry = session.stats()
            entry["inflight"] = self.inflight.get(sid, 0)
            out.append(entry)
        return out

    def get(self, sid: str) -> Optional[Session]:
        return self._sessions.get(sid)

    def live_sessions(self) -> Dict[str, Session]:
        """A snapshot of the live-session table (loop thread only) —
        what the telemetry layer stitches Chrome traces from."""
        return dict(self._sessions)

    # -- acquisition ---------------------------------------------------

    async def acquire(self, sid: str) -> Session:
        """The live session for ``sid``, opening or resurrecting it if
        needed.  A cold open evicts first only when the live set is
        already over ``max_live_sessions``; otherwise the caller evicts
        with :meth:`evict_over_limit` once its request is done."""
        session = self._sessions.get(sid)
        if session is not None:
            self._sessions.move_to_end(sid)
            return session
        pending = self._opening.get(sid)
        if pending is not None:
            return await asyncio.shield(pending)
        future: "asyncio.Future[Session]" = (
            asyncio.get_running_loop().create_future()
        )
        self._opening[sid] = future
        try:
            self.evict_over_limit()
            session = await asyncio.wrap_future(
                self.pool.submit(
                    sid,
                    lambda: Session.open(
                        sid,
                        self.config,
                        self.metrics.registry,
                        shipper=self.shipper,
                    ),
                )
            )
        except BaseException as exc:
            error = SessionOpError(
                f"opening session {sid!r} failed: "
                f"{_reason(exc, self.config.root)}"
            )
            future.set_exception(error)
            # Nobody may be awaiting the duplicate-open future; don't
            # let its exception count as unretrieved.
            future.exception()
            if isinstance(exc, Exception):
                # The full text may name the server's files: it goes to
                # the server's ring, the client gets the session and the
                # reason.  The opener answers like its waiters (422);
                # cancellation and exits pass through as-is.
                self.flight.note(
                    "session-open-failed", sid, data={"error": _detail(exc)}
                )
                raise error from exc
            raise
        finally:
            self._opening.pop(sid, None)
        self._sessions[sid] = session
        if session.resurrected:
            self.metrics.resurrections.inc()
        else:
            self.metrics.sessions_created.inc()
        self.metrics.sessions_live.set(len(self._sessions))
        future.set_result(session)
        return session

    def evict_over_limit(self, keep: Optional[str] = None) -> None:
        """Evict idle sessions, least recently used first and never
        ``keep``, until at most ``max_live_sessions`` are live; busy
        sessions overflow instead.

        Each victim leaves the live table, is counted in
        ``serve_evictions_total`` and has its close queued on its own
        worker, all in this loop step, so a later open of the same sid
        queues behind the close.  The caller does not wait for it.
        """
        while len(self._sessions) > self.config.max_live_sessions:
            victim_sid = None
            for sid in self._sessions:  # oldest first
                if sid != keep and self.inflight.get(sid, 0) == 0:
                    victim_sid = sid
                    break
            if victim_sid is None:
                return  # everyone is busy: overflow rather than block
            victim = self._sessions.pop(victim_sid)
            self.metrics.sessions_live.set(len(self._sessions))
            self.metrics.evictions.inc()
            # The close is no part of the request that made room: it
            # runs, and reports, outside that request's trace context.
            detached = contextvars.Context()
            closing = asyncio.wrap_future(
                detached.run(
                    self.pool.submit,
                    victim_sid,
                    lambda v=victim: v.close(reason="eviction"),
                )
            )
            self._closing.add(closing)
            closing.add_done_callback(
                lambda done, sid=victim_sid: self._evicted(sid, done),
                context=detached,
            )

    def _evicted(self, sid: str, done: "asyncio.Future[None]") -> None:
        """An eviction close finished (loop thread): report a failure
        against the victim.  Its state is in the WAL, which the next
        open recovers from."""
        self._closing.discard(done)
        if done.cancelled():
            return
        exc = done.exception()
        if exc is not None:
            self._close_failed("eviction-failed", sid, exc)

    def _close_failed(self, kind: str, sid: str, exc: BaseException) -> None:
        """Report a failed close against its session, not a request."""
        self.metrics.errors.inc()
        self.flight.note(kind, sid, data={"error": _detail(exc)})

    async def wait_closed(self) -> None:
        """Wait until every queued eviction close has finished."""
        while self._closing:
            done, _ = await asyncio.wait(list(self._closing))
            self._closing.difference_update(done)

    # -- shutdown ------------------------------------------------------

    async def close_all(self) -> int:
        """Checkpoint and close every live session (graceful shutdown),
        after the queued eviction closes.

        Closes are submitted to each session's own worker, so they run
        after any still-draining operations of that session and
        concurrently across sessions.  Every close is waited for; a
        failed one is reported against its session (a ``close-failed``
        flight note and ``serve_errors_total``) like a failed eviction,
        and the rest of the shutdown goes on.  Returns how many were
        closed.
        """
        await self.wait_closed()
        victims = list(self._sessions.items())
        self._sessions.clear()
        self.metrics.sessions_live.set(0)
        futures = [
            asyncio.wrap_future(self.pool.submit(sid, session.close))
            for sid, session in victims
        ]
        if futures:
            results = await asyncio.gather(*futures, return_exceptions=True)
            for (sid, _), result in zip(victims, results):
                if isinstance(result, BaseException):
                    self._close_failed("close-failed", sid, result)
        return len(victims)


def _reason(exc: BaseException, root: str) -> str:
    """Why a session could not be opened, as a client may read it:
    without the paths that locate the server's state."""
    if isinstance(exc, SpreadsheetLoadError):
        text = exc.reason
    elif isinstance(exc, OSError) and exc.strerror:
        text = f"[Errno {exc.errno}] {exc.strerror}"
    else:
        text = str(exc)
    return text.replace(root, "<root>")


def _detail(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"
