"""One tenant: a checkpoint+WAL-backed spreadsheet under its own runtime.

A session is the serve layer's isolation unit.  Each one owns a private
:class:`~repro.core.runtime.Runtime` — its own dependency graph, its own
watchdog budget, its own resilience policy — so a tenant that poisons
nodes, blows deadlines, or livelocks damages nobody else.  Durability
comes from :mod:`repro.persist`: the sheet is checkpointed at
``<root>/<sid>/sheet`` and every formula edit is WAL-logged, which is
what makes eviction cheap (checkpoint + close, resurrect later) and
crashes survivable.  The session's edit history rides in the same two
files (see :attr:`Session.edit_log`).

All session methods run on the session's pinned worker thread (see
:mod:`repro.serve.dispatch`); the internal lock is a belt-and-braces
guard for direct library use, not something the server path contends on.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Optional

from ..core import Runtime
from ..core.errors import AlphonseError, NodeExecutionError
from ..core.events import EventKind
from ..core.integrity import audit
from ..core.watchdog import Watchdog
from ..obs.flight import FlightRecorder
from ..obs.metrics import MetricsRegistry, RuntimeMetrics
from ..resil import ALLOW_STALE, FRESH, ResiliencePolicy
from ..spreadsheet import CircularReference, Spreadsheet
from .config import ServeConfig
from .protocol import ProtocolError, SessionOpError

__all__ = ["Session"]


class Session:
    """A live tenant: spreadsheet + runtime + durable state directory."""

    def __init__(
        self,
        sid: str,
        sheet: Spreadsheet,
        runtime: Runtime,
        path: str,
        *,
        resurrected: bool,
    ) -> None:
        self.sid = sid
        self.sheet = sheet
        self.runtime = runtime
        self.path = path
        self.resurrected = resurrected
        # Replication (attached by attach_replication when the server
        # has replicas configured): committed WAL lines and checkpoints
        # buffer here and are flushed to the shipper at the end of each
        # request, before the response.
        self._shipper: Any = None
        self._ship_lsn = 0
        self._ship_pending: List[Any] = []
        self.requests = 0
        self.opened_at = time.monotonic()
        self._lock = threading.Lock()
        self._closed = False
        #: The tenant runtime's one event ring (``rt.obs.flight``,
        #: attached by :meth:`open`); session-op notes land here too.
        self.flight = runtime.obs.flight
        # Incident-triggered dumps: a watchdog trip or a circuit
        # breaker opening writes the ring to disk *at the moment of the
        # incident*, while the evidence is still in the buffer.  The
        # ring subscribed first (in open()), so the trigger event itself
        # is already recorded when the dump runs.
        self._incident_kinds = (
            EventKind.WATCHDOG_TRIPPED,
            EventKind.BREAKER_STATE,
        )
        for kind in self._incident_kinds:
            runtime.events.subscribe(kind, self._on_incident)

    @property
    def edit_log(self) -> List[List[Any]]:
        """Applied formula edits in commit order, as ``[row, col,
        source]`` triples: the history a convergence check replays.

        This is the sheet's own ``edits`` list, checkpointed and
        WAL-logged with the state it describes, so it survives
        eviction, resurrection, crashes and promotion exactly as the
        sheet does.
        """
        return self.sheet.edits

    # -- lifecycle -----------------------------------------------------

    @staticmethod
    def state_path(root: str, sid: str) -> str:
        return os.path.join(root, sid, "sheet")

    @classmethod
    def open(
        cls,
        sid: str,
        config: ServeConfig,
        registry: Optional[MetricsRegistry] = None,
        *,
        shipper: Any = None,
    ) -> "Session":
        """Open a session: resurrect from disk if it has state, else
        create it fresh.

        Runs on a worker thread.  The tenant runtime is built with the
        config's watchdog budget and (optional) resilience deadline; its
        metrics collector is pointed at the server's shared registry so
        every tenant aggregates into one ``/metrics`` exposition.

        A fresh session is checkpointed at once, and so is a recovery
        that replayed WAL records, surfaced app records, dropped a torn
        tail or degraded: the checkpoint folds the log into the new
        state.  A clean recovery from an empty WAL only reattaches the
        log; the checkpoint on disk is the state it just loaded.
        """
        path = cls.state_path(config.root, sid)
        policy = None
        if config.deadline_seconds is not None:
            policy = ResiliencePolicy(deadline_seconds=config.deadline_seconds)
        watchdog = None
        if config.watchdog_max_steps is not None:
            watchdog = Watchdog(max_steps=config.watchdog_max_steps)
        runtime_kwargs: Dict[str, Any] = {
            "watchdog": watchdog,
            "resilience": policy,
        }
        if config.parallel_drains is not None:
            runtime_kwargs["parallel_drains"] = config.parallel_drains
        report = None
        if os.path.exists(path):
            sheet, report = Spreadsheet.load(path, **runtime_kwargs)
            rt = sheet.runtime
        else:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            rt = Runtime(**runtime_kwargs)
            with rt.active():
                sheet = Spreadsheet(config.rows, config.cols)
        if registry is not None:
            rt.obs.metrics = RuntimeMetrics(registry=registry)
        # One ring per tenant; trace widens it, while its flight view
        # stays flight_capacity records.
        rt.obs.flight = FlightRecorder(config.flight_capacity)
        rt.obs.enable(spans=config.trace, metrics=True, flight=True)
        with rt.active():
            manager = rt.persist_to(path)
            if report is None or report.mode != "clean" or manager.wal.last_lsn:
                # A fresh session becomes durable before its first edit,
                # and a resurrected one folds whatever its WAL held back
                # into the checkpoint, so the log never grows across
                # generations.  After a clean recovery from an empty log
                # the checkpoint on disk is kept: it holds every restored
                # node, and a new one would keep only those adopted so far.
                sheet.save(path)
        if config.wal_segment_records is not None:
            manager.wal.segment_records = config.wal_segment_records
        session = cls(sid, sheet, rt, path, resurrected=report is not None)
        if shipper is not None:
            session.attach_replication(shipper)
        return session

    def close(
        self, *, checkpoint: bool = True, reason: str = "shutdown"
    ) -> None:
        """Flush, checkpoint if anything changed, release the tenant's
        threads and free its graph.

        Idempotent.  This is the eviction path (``reason="eviction"``),
        the graceful shutdown path and the end of a promotion: after it
        returns the session's entire state is on disk and every
        thread-backed resource (deadline monitor, drain pool, WAL
        handle) is stopped — :meth:`open` on the same directory
        resurrects an equivalent session.  The closing checkpoint is
        cut only when a WAL record was appended, a tracked write
        happened, or a body ran, was poisoned or was marked
        inconsistent, since the last checkpoint (or since a clean
        reopen); a generation that only hit caches leaves the files as
        they are.  ``checkpoint=False`` never cuts one and leaves any
        WAL tail for the next :meth:`open` to replay.  An eviction that
        buries live poisoned values dumps the flight ring first: the
        tenant is leaving memory with an unresolved failure, and this
        is the last chance to keep the evidence.

        Everything after the checkpoint runs even when the flush or the
        checkpoint raises, which then propagates: the WAL handle is
        closed, the hooks are detached and the graph is freed, and the
        next :meth:`open` recovers from the WAL.  The last step is
        :meth:`Runtime.teardown` and :meth:`Spreadsheet.teardown`: the
        session's graph and sheet are gone afterwards, only its flight
        ring (:attr:`flight`) stays readable.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                with self.runtime.active():
                    self.runtime.flush()
                    if checkpoint and self.runtime._persist.changed:
                        self.sheet.save(self.path)
            finally:
                self._release(reason)

    def _release(self, reason: str) -> None:
        """The rest of :meth:`close`, run whatever the flush and the
        checkpoint did (a failed checkpoint leaves the WAL to recover
        from): ship, detach, stop the runtime's threads and WAL handle,
        then tear the graph and the sheet down so that reference
        counting frees the tenant at once.  The flight ring stays
        readable."""
        try:
            if reason == "eviction" and self.runtime._poison_live > 0:
                self.dump_flight(reason="eviction-with-poison")
            # The closing checkpoint (and any straggler records) must
            # reach the standbys before the hooks detach.
            self._flush_ship()
        finally:
            self._detach_replication()
            for kind in self._incident_kinds:
                self.runtime.events.unsubscribe(kind, self._on_incident)
            self.runtime.obs.disable()
            self.runtime.teardown()
            self.sheet.teardown()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- flight view ---------------------------------------------------

    def flight_path(self) -> str:
        """Where this tenant's flight dumps land (``<root>/<sid>/``)."""
        return os.path.join(os.path.dirname(self.path), "flight.jsonl")

    def dump_flight(
        self, *, reason: str = "on-demand", extra: Optional[Dict[str, Any]] = None
    ) -> str:
        """Write the ring's flight view as JSONL; returns the path."""
        header: Dict[str, Any] = {"sid": self.sid}
        if extra:
            header.update(extra)
        self.flight.dump(self.flight_path(), reason=reason, extra=header)
        return self.flight_path()

    def _on_incident(self, kind: EventKind, node: Any, amount: int, data: Any) -> None:
        # Breaker events fire on every transition; only *opening* is an
        # incident worth a dump (half-open/close are recovery).
        if kind is EventKind.BREAKER_STATE and not (
            isinstance(data, dict) and data.get("to") == "open"
        ):
            return
        self.dump_flight(reason=kind.value)

    # -- replication ---------------------------------------------------

    def attach_replication(self, shipper: Any) -> None:
        """Start streaming this session's durable state to ``shipper``.

        Hooks the WAL's append tap and CHECKPOINT events; everything
        buffers in request order and is flushed at the end of each
        :meth:`apply` — before the client response, so in semi-sync mode
        an acknowledged write is on every live standby.  Attaching always opens with a full resync frame: the
        stream LSN restarts at 0 per session generation, and the resync
        is what makes eviction/resurrection cycles self-correcting.
        """
        self._shipper = shipper
        self._ship_lsn = 0
        self._ship_pending = []
        manager = self.runtime._persist
        if manager is not None:
            manager.wal.on_append = self._tap_wal
        self.runtime.events.subscribe(EventKind.CHECKPOINT, self._on_checkpoint)
        shipper.resync(self.sid, self.build_resync_frame())

    def _detach_replication(self) -> None:
        if self._shipper is None:
            return
        manager = self.runtime._persist
        if manager is not None and manager.wal.on_append == self._tap_wal:
            manager.wal.on_append = None
        self.runtime.events.unsubscribe(EventKind.CHECKPOINT, self._on_checkpoint)
        self._shipper = None

    def _tap_wal(self, line: str, record: Dict[str, Any]) -> None:
        self._ship_pending.append(("wal", line.rstrip("\n")))

    def _on_checkpoint(self, kind: EventKind, node: Any, amount: int, data: Any) -> None:
        # Ship the whole checkpoint file: it anchors WAL truncation on
        # the standby exactly as it did here.
        try:
            with open(self.path, encoding="utf-8") as fh:
                self._ship_pending.append(("ckpt", fh.read()))
        except OSError:
            pass  # unreadable checkpoint: the standby keeps replaying WAL

    def _flush_ship(self) -> None:
        """Hand buffered stream records to the shipper (request tail)."""
        if self._shipper is None or not self._ship_pending:
            return
        from ..replicate.stream import make_record

        pending, self._ship_pending = self._ship_pending, []
        records = []
        for record_kind, payload in pending:
            self._ship_lsn += 1
            records.append(make_record(self._ship_lsn, record_kind, payload))
        self._shipper.ship(self.sid, records, self.build_resync_frame)

    def build_resync_frame(self) -> Dict[str, Any]:
        """A full-session snapshot frame at the current stream position
        (runs on the session's own worker, so the files are quiescent)."""
        from ..replicate.stream import session_resync_frame

        root = os.path.dirname(os.path.dirname(self.path))
        return session_resync_frame(root, self.sid, self._ship_lsn)

    # -- request execution ---------------------------------------------

    def apply(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one protocol request against this tenant.

        Raises :class:`SessionOpError` (422) when the operation itself
        fails and :class:`ProtocolError` (400) when its arguments are
        malformed; anything returned is the JSON-safe ``result``.
        """
        with self._lock:
            if self._closed:
                raise SessionOpError(f"session {self.sid!r} is closed")
            op = request.get("op")
            handler = getattr(self, f"_op_{op}", None)
            if handler is None:
                raise ProtocolError(f"unknown session op {op!r}")
            self.requests += 1
            started = time.perf_counter()
            try:
                with self.runtime.active():
                    return handler(request)
            finally:
                # Ship whatever this request made durable *before* the
                # response is written (a failed op ships its applied
                # prefix too — it is durable locally, so it must be on
                # the standbys).  Semi-sync blocks here until acked.
                self._flush_ship()
                # Runs on the pinned worker inside the dispatch shim's
                # copied context, so the note carries the request's
                # trace ids — the "session-op" lane of the stitched
                # Chrome timeline.
                self.flight.note(
                    "session-op",
                    f"{op} {self.sid}",
                    duration=time.perf_counter() - started,
                )

    # Each _op_* runs under the session lock with the runtime active.

    def _op_write(self, request: Dict[str, Any]) -> Dict[str, Any]:
        cells = _cells_arg(request)
        applied = 0
        try:
            for row, col, formula in cells:
                self.sheet.set_formula(row, col, formula)
                applied += 1
        except (AlphonseError, ValueError, IndexError, TypeError) as exc:
            raise SessionOpError(
                f"write failed after {applied} cells: {exc}"
            ) from exc
        return {"applied": applied}

    def _op_batch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        cells = _cells_arg(request)
        try:
            self.sheet.bulk_update(cells, rollback_on_error=True)
        except (AlphonseError, ValueError, IndexError, TypeError) as exc:
            # rollback_on_error restored every cell and its history.
            raise SessionOpError(f"batch rolled back: {exc}") from exc
        return {"applied": len(cells)}

    def _op_read(self, request: Dict[str, Any]) -> Dict[str, Any]:
        row, col = _coords_arg(request)
        staleness = request.get("staleness", FRESH)
        if staleness not in (FRESH, ALLOW_STALE):
            raise ProtocolError(f"unknown staleness {staleness!r}")
        if staleness == FRESH:
            try:
                return {"value": self.sheet.value(row, col), "stale": False}
            except (CircularReference, NodeExecutionError) as exc:
                raise SessionOpError(f"read R{row}C{col}: {exc}") from exc
        # Degraded read: last-known-good value instead of an error.
        value = self.sheet.display(row, col, allow_stale=True)
        info = self.sheet.staleness(row, col)
        result: Dict[str, Any] = {"value": value, "stale": info is not None}
        if info is not None:
            result["origin"] = info.origin
            result["error"] = str(info.error)
            result["age_seconds"] = info.age_seconds
        return result

    def _op_explain(self, request: Dict[str, Any]) -> Dict[str, Any]:
        row, col = _coords_arg(request)
        try:
            explanation = self.runtime.explain(f"(R{row}C{col})")
        except (AlphonseError, KeyError, ValueError) as exc:
            raise SessionOpError(f"explain R{row}C{col}: {exc}") from exc
        return {"explanation": str(explanation)}

    def _op_snapshot(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.runtime.flush()
        return {"path": self.sheet.save(self.path)}

    def _op_dump(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "rows": self.sheet.rows,
            "cols": self.sheet.cols,
            "values": [
                [self.sheet.display(r, c) for c in range(self.sheet.cols)]
                for r in range(self.sheet.rows)
            ],
        }

    def _op_log(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"edits": list(self.edit_log), "count": len(self.edit_log)}

    def _op_audit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        violations = audit(self.runtime, raise_on_violation=False)
        return {"violations": violations, "sound": not violations}

    def _op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self.stats()

    def _op_debug(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The ring's flight view on demand (optionally dumped too)."""
        limit = request.get("limit")
        records = self.flight.records()
        if isinstance(limit, int) and 0 < limit < len(records):
            records = records[-limit:]
        result: Dict[str, Any] = {
            "sid": self.sid,
            "records": records,
            "recorded": self.flight.recorded,
            "dropped": self.flight.dropped,
            "tracing": EventKind.EXECUTION_STARTED in self.flight.watching,
            "spans": len(self.runtime.obs.tracer),
        }
        if request.get("dump"):
            result["path"] = self.dump_flight(reason="debug-op")
        return result

    def stats(self) -> Dict[str, Any]:
        return {
            "sid": self.sid,
            "resurrected": self.resurrected,
            "requests": self.requests,
            "edits": len(self.edit_log),
            "rows": self.sheet.rows,
            "cols": self.sheet.cols,
            "nodes": len(self.runtime.graph.nodes),
            "uptime_seconds": round(time.monotonic() - self.opened_at, 3),
        }


# ----------------------------------------------------------------------
# argument validation
# ----------------------------------------------------------------------


def _cells_arg(request: Dict[str, Any]) -> List[Any]:
    cells = request.get("cells")
    if not isinstance(cells, list) or not cells:
        raise ProtocolError("'cells' must be a non-empty list")
    out = []
    for entry in cells:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
            raise ProtocolError(f"cell entry must be [row, col, formula]: {entry!r}")
        row, col, formula = entry
        if not (_is_int(row) and _is_int(col)):
            raise ProtocolError(f"cell coordinates must be ints: {entry!r}")
        out.append((row, col, formula))
    return out


def _coords_arg(request: Dict[str, Any]) -> tuple:
    row, col = request.get("row"), request.get("col")
    if not (_is_int(row) and _is_int(col)):
        raise ProtocolError("'row' and 'col' must be ints")
    return row, col


def _is_int(value: Any) -> bool:
    """An int and not a bool: JSON ``true`` decodes to one."""
    return isinstance(value, int) and not isinstance(value, bool)
