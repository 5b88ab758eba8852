"""Span trees: fold the ring's flat records into nested timed spans.

The event bus announces *points* — one event per operation.  Profiling
needs *intervals*: how long did this drain take, and how much of it was
one procedure's body?  The engine emits span boundary events
(``DRAIN_STARTED``/``DRAIN``, ``EXECUTION_STARTED``/``EXECUTION``,
``BATCH_STARTED``/``BATCH_COMMIT``,
``FORCED_EVALUATION_STARTED``/``FORCED_EVALUATION``); a ring watching
:data:`KINDS` records them, and :class:`SpanTracer` folds those records,
per emitting thread, into the interval tree the operations formed::

    batch
    └── drain                 (commit's propagation pass)
        ├── execute f(1)
        │   └── force         (nested call flushed pending changes)
        │       └── drain
        └── execute g(2)

Spans are exportable as JSON lines (one span per line, depth-first) and
as Chrome ``trace_event`` format — load the latter in ``chrome://tracing``
or Perfetto for a flame view of drain time.

Fault tolerance: a body that raises emits no ``EXECUTION`` end event, so
closing an outer span also closes any still-open descendants (status
``"interrupted"``), and so does reading the ring while a span is still
open (it ends at the newest record); an aborted drain's
``DRAIN_ABORTED`` closes the drain span with status ``"aborted"``.  An
end record with no matching open record (the ring dropped it, or
recording began mid-drain) is ignored.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..core.events import EventKind

__all__ = ["KINDS", "OPEN_KINDS", "Span", "SpanTracer"]


class Span:
    """One timed interval: a drain, an execution, a batch, or a force."""

    __slots__ = (
        "role",
        "label",
        "start",
        "end",
        "status",
        "meta",
        "children",
        "node_id",
        "seq",
        "tid",
    )

    def __init__(
        self,
        role: str,
        label: str,
        start: float,
        seq: int,
        node_id: Any = None,
        tid: Any = None,
    ) -> None:
        self.role = role
        self.label = label
        self.start = start
        self.end: Optional[float] = None
        #: Identity of the thread the span opened on — concurrent
        #: partition drains fold into per-thread trees, and the Chrome
        #: export lanes spans by this.
        self.tid = tid
        #: "ok", "aborted" (drain torn down), "poisoned" (body failure
        #: contained), or "interrupted" (an enclosing span ended, or the
        #: ring was read, while this one was still open).
        self.status = "ok"
        self.meta: Dict[str, Any] = {}
        self.children: List["Span"] = []
        self.node_id = node_id
        self.seq = seq

    @property
    def duration(self) -> float:
        """Seconds from open to close."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def walk(self):
        """Yield this span and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "role": self.role,
            "label": self.label,
            "seq": self.seq,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
            "tid": self.tid,
        }
        if self.meta:
            out["meta"] = self.meta
        if self.children:
            out["children"] = len(self.children)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<span {self.role} {self.label!r} {self.status}>"


#: kind -> span role for open events.
_OPEN_ROLES = {
    EventKind.DRAIN_STARTED: "drain",
    EventKind.EXECUTION_STARTED: "execute",
    EventKind.BATCH_STARTED: "batch",
    EventKind.FORCED_EVALUATION_STARTED: "force",
}

#: kind -> span role for close events.
_CLOSE_ROLES = {
    EventKind.DRAIN: "drain",
    EventKind.DRAIN_ABORTED: "drain",
    EventKind.EXECUTION: "execute",
    EventKind.BATCH_COMMIT: "batch",
    EventKind.ROLLBACK: "batch",
    EventKind.FORCED_EVALUATION: "force",
    EventKind.NODE_POISONED: "execute",
}

#: The kinds that open a span, and all the kinds a ring must watch for
#: span trees (also read by the observability coverage test).
OPEN_KINDS = frozenset(_OPEN_ROLES)
KINDS = OPEN_KINDS | frozenset(_CLOSE_ROLES)


def fold(ring: Any) -> List[Span]:
    """The root spans of ``ring``'s records, in closing order."""
    roots: List[Span] = []
    stacks: Dict[Any, List[Span]] = {}
    last_ts = 0.0
    for seq, (ts, kind, node, amount, data, trace, tid) in ring.entries():
        if type(kind) is str:
            continue  # a note (its last slot is a duration)
        last_ts = ts
        role = _OPEN_ROLES.get(kind)
        if role is not None:
            span = Span(
                role,
                getattr(node, "label", None) or role,
                ts,
                seq,
                node_id=getattr(node, "node_id", None),
                tid=tid,
            )
            if role == "drain":
                span.meta["pending"] = amount
            if isinstance(data, dict):
                # DRAIN_STARTED carries {"partition": pid}: tag the span
                # so flame views can group drain time by partition.
                span.meta.update(data)
            if trace is not None:
                # The request that caused this span (serve layer): the
                # ids let a Chrome export correlate it with the protocol
                # request across the asyncio→worker-thread boundary.
                span.meta.update(trace.ids())
            stacks.setdefault(tid, []).append(span)
            continue
        role = _CLOSE_ROLES.get(kind)
        stack = stacks.get(tid)
        if role is None or not stack:
            continue
        target = _find_open(stack, role, node if role == "execute" else None)
        if target is None:
            continue  # unmatched end: its open record is not in the
            # ring, or (for NODE_POISONED) poison copied from an input
            # with no execution of this node in flight.
        # Spans opened above the target never saw their end event (an
        # exception unwound through them): close them as interrupted.
        while stack[-1] is not target:
            _close(stack, roots, ts, "interrupted")
        status = "ok"
        if kind is EventKind.DRAIN_ABORTED:
            status = "aborted"
            target.meta["error"] = data
        elif kind is EventKind.NODE_POISONED:
            status = "poisoned"
            if isinstance(data, dict):
                target.meta.update(data)
        if kind is EventKind.DRAIN or kind is EventKind.DRAIN_ABORTED:
            target.meta["steps"] = amount
            if isinstance(data, dict):
                target.meta.update(data)
        elif kind is EventKind.BATCH_COMMIT or kind is EventKind.ROLLBACK:
            if isinstance(data, dict):
                target.meta.update(data)
            if kind is EventKind.ROLLBACK:
                target.meta["rolled_back"] = True
        _close(stack, roots, ts, status)
    for stack in stacks.values():
        while stack:
            _close(stack, roots, last_ts, "interrupted")
    return roots


def _find_open(stack: List[Span], role: str, node: Any) -> Optional[Span]:
    """Innermost open span of ``role`` (and of ``node``, if given)."""
    for span in reversed(stack):
        if span.role != role:
            continue
        if node is not None and span.node_id != getattr(node, "node_id", None):
            continue
        return span
    return None


def _close(stack: List[Span], roots: List[Span], end: float, status: str) -> None:
    span = stack.pop()
    span.end = end
    if status != "ok":
        span.status = status
    if stack:
        stack[-1].children.append(span)
    else:
        roots.append(span)


class SpanTracer:
    """The span-tree view of a ring (``rt.obs.tracer``).

    Holds only the ring; every query folds the ring's current records,
    so the view never goes stale and costs nothing between queries.
    """

    def __init__(self, ring: Any) -> None:
        self.ring = ring

    @property
    def roots(self) -> List[Span]:
        """Top-level spans, in closing order."""
        return fold(self.ring)

    def spans(self) -> List[Span]:
        """All spans, depth-first across the root forest."""
        out: List[Span] = []
        for root in fold(self.ring):
            out.extend(root.walk())
        return out

    def by_procedure(self) -> Dict[str, Dict[str, Any]]:
        """Aggregate execute spans per procedure name.

        The instance label ``f(1, 2)`` aggregates under ``f``; exclusive
        ("self") time subtracts the time of directly nested spans, so a
        caller is not charged for its callees' bodies.
        """
        table: Dict[str, Dict[str, Any]] = {}
        for span in self.spans():
            if span.role != "execute":
                continue
            name = span.label.split("(", 1)[0]
            row = table.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += span.duration - sum(
                c.duration for c in span.children
            )
        return table

    def __len__(self) -> int:
        return len(self.spans())

    # -- export ----------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per span, depth-first, with depth."""
        lines: List[str] = []

        def emit(span: Span, depth: int) -> None:
            record = span.to_dict()
            record["depth"] = depth
            lines.append(json.dumps(record, sort_keys=True))
            for child in span.children:
                emit(child, depth + 1)

        for root in fold(self.ring):
            emit(root, 0)
        return "\n".join(lines)

    def write(self, path: str) -> int:
        """Write the JSONL export; returns the span count."""
        text = self.to_jsonl()
        with open(path, "w", encoding="utf-8") as fh:
            if text:
                fh.write(text + "\n")
        return text.count("\n") + 1 if text else 0

    def to_chrome(self) -> Dict[str, Any]:
        """Chrome ``trace_event`` JSON (complete "X" events, µs)."""
        events: List[Dict[str, Any]] = []
        for span in self.spans():
            args: Dict[str, Any] = {"status": span.status}
            args.update(span.meta)
            events.append(
                {
                    "name": span.label,
                    "cat": span.role,
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": 1,
                    "tid": span.tid,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: str) -> int:
        """Write the Chrome trace; returns the event count."""
        trace = self.to_chrome()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(trace, fh, sort_keys=True)
            fh.write("\n")
        return len(trace["traceEvents"])
