"""The event ring: one bounded record of what a runtime did.

:class:`FlightRecorder` subscribes to the kinds it watches and appends
one tuple per event to a bounded deque.  Every consumer is a *view*
that reads the ring when asked: the flight view (:meth:`records`,
:meth:`dump`, :meth:`chrome_events`: the ring's own kinds and the
notes), span trees (:class:`~repro.obs.spans.SpanTracer`) and the lang
CLI's ``--trace`` (the flight view of a ring whose own kinds are every
kind).  Explain chains read no ring: the kernel stamps causes on the
nodes themselves (see :mod:`repro.obs.explain`).

The default own kinds (:data:`FlightRecorder.DEFAULT_KINDS`) are
low-rate incidents — drains, aborts, watchdog trips, poisonings, batch
boundaries, resilience events, checkpoints — never the per-read hot
kinds, so a ring watching only them costs the hot path nothing (the
engine does not emit a kind no handler observes) and holds
``capacity`` records.  Only span kinds widen it: once it also watches
them it holds :data:`WIDE_CAPACITY` records, and the flight view still
shows at most the newest ``capacity`` of its own records and notes.

A record is a 7-tuple ``(ts, kind, subject, amount, data, trace,
extra)``: clock reading, :class:`~repro.core.events.EventKind` (a
note's string kind), the node by reference (a note's label), amount and
payload as emitted, the ambient :class:`~repro.obs.trace.TraceContext`
by reference, and the emitting thread's id (a note's duration).  The
sequence number is the ring position plus the records dropped before
it.  Labels, ids and JSON are rendered only when a view reads the ring;
appends take no lock (the GIL makes deque appends atomic, and a bus in
parallel-drain mode already serializes emits).  Layers without an
event bus record through :meth:`FlightRecorder.note`.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import deque
from threading import get_ident
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Set, Tuple

from ..core.events import EventBus, EventKind
from .spans import KINDS as SPAN_KINDS
from .trace import _CURRENT

__all__ = ["FlightRecorder", "WIDE_CAPACITY", "render_data"]

#: Records a ring holds once it watches span kinds beyond its own.
WIDE_CAPACITY = 100_000

#: The ambient trace context, read without a Python-level call.
_current_trace = _CURRENT.get


def render_data(data: Any) -> Any:
    """An event payload as JSON-safe data: nodes by label, containers
    element-wise, anything else by ``repr``."""
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    label = getattr(data, "label", None)
    if label is not None:
        return label
    if isinstance(data, dict):
        return {str(k): render_data(v) for k, v in data.items()}
    if isinstance(data, (list, tuple)):
        return [render_data(v) for v in data]
    return repr(data)


class FlightRecorder:
    """Bounded, lock-free ring of runtime events and notes.

    ``capacity`` bounds the ring while it watches only ``kinds``
    (default :data:`DEFAULT_KINDS`) and always bounds the flight view.
    ``clock`` defaults to :func:`time.perf_counter`; dumps carry a
    wall-clock reference for conversion.
    """

    #: Low-rate, high-signal kinds worth keeping forever.  Deliberately
    #: excludes the per-read hot kinds (ACCESS/MODIFY/CACHE_*/
    #: PROPAGATION_STEP/EDGE_*) and per-record WAL appends.
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
        self._ring: Deque[Tuple[Any, ...]] = deque(maxlen=capacity)
        self._recorded = 0
        self._tid: Optional[int] = None
        self._watched: Set[EventKind] = set()
        self._bus: Optional[EventBus] = None

    # -- subscription lifecycle -----------------------------------------

    def attach(self, bus: EventBus) -> "FlightRecorder":
        """Record this ring's own kinds from ``bus``."""
        if self._bus is not None:
            raise RuntimeError("FlightRecorder is already attached")
        return self.watch(bus, self.kinds)

    def watch(self, bus: EventBus, kinds: Any) -> "FlightRecorder":
        """Also record ``kinds`` from ``bus`` (attaching to it if needed).

        Idempotent per kind.  Watching a span kind beyond the ring's own
        widens the ring to :data:`WIDE_CAPACITY` records.
        """
        if self._bus is None:
            self._bus = bus
        elif bus is not self._bus:
            raise RuntimeError("FlightRecorder is attached to another bus")
        for kind in kinds:
            if kind not in self._watched:
                self._watched.add(kind)
                bus.subscribe(kind, self._handle)
        if (
            not SPAN_KINDS.isdisjoint(self._watched - self.kinds)
            and self._ring.maxlen < WIDE_CAPACITY
        ):
            self._ring = deque(self._ring, maxlen=WIDE_CAPACITY)
        return self

    def detach(self) -> None:
        """Stop recording (the ring keeps what it holds)."""
        if self._bus is None:
            return
        for kind in self._watched:
            self._bus.unsubscribe(kind, self._handle)
        self._watched.clear()
        self._bus = None

    @property
    def watching(self) -> frozenset:
        """The kinds currently recorded from the attached bus."""
        return frozenset(self._watched)

    # -- recording -------------------------------------------------------

    def _handle(self, kind: EventKind, node: Any, amount: int, data: Any) -> None:
        self._recorded += 1
        # Keep one int per thread instead of a fresh one per record.
        tid = get_ident()
        last = self._tid
        if tid == last:
            tid = last
        else:
            self._tid = tid
        self._ring.append(
            (self._clock(), kind, node, amount, data, _current_trace(), tid)
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
        now = self._clock()
        self._recorded += 1
        self._ring.append(
            (
                now if duration is None else now - duration,
                kind,
                label,
                amount,
                data,
                _current_trace(),
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

    def entries(self) -> Iterator[Tuple[int, Tuple[Any, ...]]]:
        """``(seq, record)`` pairs oldest-first over a snapshot of the
        ring (``list(deque)`` copies atomically under the GIL)."""
        ring = list(self._ring)
        return zip(itertools.count(self._recorded - len(ring)), ring)

    def records(self) -> List[Dict[str, Any]]:
        """The flight view: the ring's own kinds and the notes, at most
        the newest ``capacity`` of them, oldest-first as JSON-safe
        dicts."""
        kinds = self.kinds
        ring = list(self._ring)
        first = self._recorded - len(ring)
        picked: List[int] = []
        for i in range(len(ring) - 1, -1, -1):
            kind = ring[i][1]
            if type(kind) is str or kind in kinds:
                picked.append(i)
                if len(picked) == self.capacity:
                    break
        return [_render(first + i, ring[i]) for i in reversed(picked)]

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
        """Write the flight view as JSONL with a header line; returns the
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
        """The flight view as Chrome ``trace_event`` objects.

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


def _render(seq: int, record: Tuple[Any, ...]) -> Dict[str, Any]:
    """One ring record as the JSON-safe dict every export shares."""
    ts, kind, subject, amount, data, trace, extra = record
    note = type(kind) is str
    out: Dict[str, Any] = {
        "seq": seq,
        "ts": round(ts, 6),
        "kind": kind if note else kind.value,
        "label": subject if note else getattr(subject, "label", None),
        "amount": amount,
        "data": render_data(data),
    }
    if trace is not None:
        out.update(trace.ids())
    if note and extra is not None:
        out["duration"] = round(extra, 6)
    return out
