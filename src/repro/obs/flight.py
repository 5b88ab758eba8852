"""Always-on flight recorder: a bounded ring of recent events and spans.

Span tracing and the full :class:`~repro.core.events.TraceExporter` are
*profiling* tools — you attach them when you already know something is
worth watching.  A postmortem needs the opposite: when a watchdog trips
or a circuit breaker opens, the question is "what were the last things
this runtime did?", and by then it is too late to start recording.

:class:`FlightRecorder` answers that by being cheap enough to leave on
forever:

* it subscribes **only to low-rate, high-signal kinds** — drain
  completions, aborts, watchdog trips, poisonings, batch boundaries,
  resilience events, checkpoints — never to the per-read hot kinds
  (``ACCESS``, ``MODIFY``, ``PROPAGATION_STEP``, cache traffic), so the
  engine's hot path pays nothing at all for it (the engine does not
  emit a kind no handler observes);
* each captured event is one tuple appended to a bounded
  ``collections.deque`` — no dict building, no rendering, no lock (the
  GIL makes deque appends atomic, and a bus in parallel-drain mode
  already serializes emits);
* rendering to JSON happens only at dump time.

Records are tagged with the ambient :class:`~repro.obs.trace.TraceContext`
when one is installed, so a dump after an incident correlates directly
with the protocol request ids the serve layer handed its clients.

Layers without an event bus (the asyncio server, the dispatch hop)
record through :meth:`FlightRecorder.note`, optionally with a duration —
those records double as spans and export to Chrome ``trace_event``
format via :meth:`chrome_events`, which is how the serve layer stitches
server/dispatch/session/drain activity into one per-request timeline.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..core.events import EventBus, EventKind, TraceExporter
from .trace import current_trace

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Bounded, lock-cheap ring of recent significant events.

    ``capacity`` bounds memory; older records fall off the front.
    ``kinds`` selects the subscribed event kinds (default:
    :data:`FlightRecorder.DEFAULT_KINDS` — the incident/boundary set).
    ``clock`` defaults to :func:`time.perf_counter` so record times
    align with :class:`~repro.obs.spans.SpanTracer` spans in a stitched
    timeline; dumps carry a wall-clock reference for conversion.
    """

    #: Low-rate, high-signal kinds worth keeping forever.  Deliberately
    #: excludes the per-read hot kinds (ACCESS/MODIFY/CACHE_*/
    #: PROPAGATION_STEP/EDGE_*) and per-record WAL appends — the ring is
    #: a postmortem artifact, not a profile.
    DEFAULT_KINDS = frozenset(
        {
            EventKind.DRAIN,
            EventKind.DRAIN_ABORTED,
            EventKind.WATCHDOG_TRIPPED,
            EventKind.NODE_POISONED,
            EventKind.BATCH_COMMIT,
            EventKind.ROLLBACK,
            EventKind.RETRY,
            EventKind.BREAKER_STATE,
            EventKind.DEADLINE_EXCEEDED,
            EventKind.STALE_READ,
            EventKind.CHECKPOINT,
            EventKind.RECOVERY,
        }
    )

    def __init__(
        self,
        capacity: int = 512,
        *,
        kinds: Optional[frozenset] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.kinds = frozenset(kinds) if kinds is not None else self.DEFAULT_KINDS
        self._clock = clock if clock is not None else time.perf_counter
        #: Ring entries: (seq, ts, kind, label, amount, data, trace, dur).
        self._ring: Deque[Tuple[Any, ...]] = deque(maxlen=capacity)
        self._seq = itertools.count()
        self._recorded = 0
        self._bus: Optional[EventBus] = None

    # -- subscription lifecycle -----------------------------------------

    def attach(self, bus: EventBus) -> "FlightRecorder":
        if self._bus is not None:
            raise RuntimeError("FlightRecorder is already attached")
        for kind in self.kinds:
            bus.subscribe(kind, self._handle)
        self._bus = bus
        return self

    def detach(self) -> None:
        if self._bus is None:
            return
        for kind in self.kinds:
            self._bus.unsubscribe(kind, self._handle)
        self._bus = None

    # -- recording -------------------------------------------------------

    def _handle(self, kind: EventKind, node: Any, amount: int, data: Any) -> None:
        ctx = current_trace()
        self._recorded += 1
        self._ring.append(
            (
                next(self._seq),
                self._clock(),
                kind.value,
                getattr(node, "label", None),
                amount,
                data,
                None if ctx is None else ctx.ids(),
                None,
            )
        )

    def note(
        self,
        kind: str,
        label: Optional[str] = None,
        *,
        amount: int = 1,
        data: Any = None,
        duration: Optional[float] = None,
    ) -> None:
        """Record one event directly (for layers without an event bus).

        With ``duration`` the record is a completed span whose start is
        backdated by the duration, so Chrome export places it where the
        work actually happened.
        """
        ctx = current_trace()
        now = self._clock()
        self._recorded += 1
        self._ring.append(
            (
                next(self._seq),
                now if duration is None else now - duration,
                kind,
                label,
                amount,
                data,
                None if ctx is None else ctx.ids(),
                duration,
            )
        )

    # -- reading ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def recorded(self) -> int:
        """Total records ever captured (>= len() once the ring wraps)."""
        return self._recorded

    @property
    def dropped(self) -> int:
        """Records that have fallen off the front of the ring."""
        return self._recorded - len(self._ring)

    def clear(self) -> None:
        self._ring.clear()

    def records(self) -> List[Dict[str, Any]]:
        """The ring rendered oldest-first as JSON-safe dicts.

        Safe under concurrent appends: ``list(deque)`` snapshots
        atomically under the GIL before rendering.
        """
        out = []
        for seq, ts, kind, label, amount, data, trace, dur in list(self._ring):
            record: Dict[str, Any] = {
                "seq": seq,
                "ts": round(ts, 6),
                "kind": kind,
                "label": label,
                "amount": amount,
                "data": TraceExporter._render(data),
            }
            if trace is not None:
                record.update(trace)
            if dur is not None:
                record["duration"] = round(dur, 6)
            out.append(record)
        return out

    # -- export ----------------------------------------------------------

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps(record, sort_keys=True, default=str)
            for record in self.records()
        )

    def dump(
        self,
        path: str,
        *,
        reason: str = "on-demand",
        extra: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Write the ring as JSONL with a header line; returns the
        record count.

        The header carries the dump reason, drop accounting, and a
        wall-clock/monotonic reference pair so the per-record monotonic
        ``ts`` values can be converted to absolute times.
        """
        records = self.records()
        header: Dict[str, Any] = {
            "flight_dump": reason,
            "records": len(records),
            "dropped": self.dropped,
            "wall_time": time.time(),
            "monotonic_now": self._clock(),
        }
        if extra:
            header.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True, default=str) + "\n")
            for record in records:
                fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        return len(records)

    def chrome_events(
        self, *, pid: int = 1, tid: Any = "flight"
    ) -> List[Dict[str, Any]]:
        """The ring as Chrome ``trace_event`` objects.

        Records with a duration become complete ``"X"`` spans; the rest
        become thread-scoped instant events (``"i"``), so incidents show
        up as markers between the spans that surround them.
        """
        events: List[Dict[str, Any]] = []
        for record in self.records():
            args = {
                k: v
                for k, v in record.items()
                if k in ("data", "amount", "trace_id", "request_id")
                and v is not None
            }
            event: Dict[str, Any] = {
                "name": record["label"] or record["kind"],
                "cat": record["kind"],
                "ts": record["ts"] * 1e6,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
            if "duration" in record:
                event["ph"] = "X"
                event["dur"] = record["duration"] * 1e6
            else:
                event["ph"] = "i"
                event["s"] = "t"
            events.append(event)
        return events
