"""Crash recovery: checkpoint + WAL tail -> a live runtime.

``recover(path)`` rebuilds a :class:`~repro.core.runtime.Runtime` from
the durable state a :class:`~repro.persist.wal.PersistenceManager`
left behind, and **never raises on bad state**: every failure mode
degrades to an empty runtime that rebuilds exhaustively — slower,
never wrong.  The typed outcome is a :class:`RecoveryReport`:

* ``mode == "clean"`` — checkpoint restored, empty WAL.
* ``mode == "replayed"`` — checkpoint restored plus ``replayed`` WAL
  write records re-applied and re-marked.
* ``mode == "degraded"`` — something was corrupt (``reason`` says
  what); the runtime starts empty.  Application redo records salvaged
  from the readable WAL prefix are still surfaced so app layers can
  replay semantic operations.  A checkpoint whose payload names a codec
  other than ``"json"`` (or none) degrades the same way, without
  decoding a single value, but keeps its ``app_state``: the
  application rebuilds from it exhaustively.

**The reconstruction contract.**  Recovery restores *graph* state; the
reconstructed program must re-create its tracked locations and
procedures deterministically (same construction order, same labels /
explicit sids — see :mod:`repro.persist.ids`).  Restored nodes are
then *adopted lazily*: a location binds to its checkpointed node at
first touch, validated against the checkpoint's value fingerprint
(mismatch → conservative re-mark); a procedure instance adopts its
node — cached value, edges, flags and all — at its first call.  Inputs
that diverged from snapshot-time flow through ordinary tracked writes
and are caught by change detection, so divergence costs recomputation,
not correctness.  Adoption is an optimization: any node that never
binds simply stays inert, and a degraded recovery is always sound.

``restore_values=True`` additionally pushes checkpointed storage
values into the locations at bind time (the spreadsheet's ``load``
uses this to restore cell state); the default leaves live values
authoritative and uses them for fingerprint validation only.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Optional, Tuple

from ..core.events import EventKind
from ..core.node import NO_VALUE, DepNode, NodeKind, Poisoned
from ..core.runtime import Runtime
from .codec import CODEC, CodecError
from .snapshot import CheckpointCorrupt, read_checkpoint
from .wal import WriteAheadLog

__all__ = ["RecoveryReport", "RestoredFault", "RestoredState", "recover"]


class RestoredFault(Exception):
    """Stand-in for a checkpointed poison's original exception.

    Exception objects are never persisted; a restored poisoned node
    carries ``RestoredFault("<original class name>")`` instead.  It is
    containable, so the restored poison heals through ordinary
    re-evaluation exactly like a live one.
    """


@dataclasses.dataclass
class RecoveryReport:
    """Typed outcome of one :func:`recover` call."""

    mode: str  # "clean" | "replayed" | "degraded"
    path: str = ""
    reason: Optional[str] = None
    replayed: int = 0
    restored_nodes: int = 0
    restored_edges: int = 0
    dropped_tail: bool = False
    app_state: Any = None
    app_records: List[Any] = dataclasses.field(default_factory=list)
    violations: List[str] = dataclasses.field(default_factory=list)
    #: When the WAL was damaged mid-log: which file and at which byte
    #: offset the first bad record starts.  This is the exact tail an
    #: operator inspects and replication gap detection points at —
    #: everything before it replayed (or was salvaged), everything
    #: after it is untrusted.
    corrupt_file: Optional[str] = None
    corrupt_offset: Optional[int] = None
    #: Highest LSN among the readable WAL records (0 when empty).
    wal_last_lsn: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")


class RestoredState:
    """Unclaimed checkpoint nodes awaiting adoption by live objects.

    Installed at ``rt._restored`` by :func:`recover`; drained by the
    runtime's bind hooks (``_bind_restored_location``,
    ``_adopt_restored_instance``) and dropped once empty.
    """

    def __init__(
        self,
        locations: Dict[str, Tuple[DepNode, Optional[str]]],
        instances: Dict[str, DepNode],
        restore_values: bool,
    ) -> None:
        self._locations = locations
        self._instances = instances
        self.restore_values = restore_values

    def take_location(
        self, sid: Optional[str]
    ) -> Optional[Tuple[DepNode, Optional[str]]]:
        if not isinstance(sid, str):
            return None
        return self._locations.pop(sid, None)

    def take_instance(
        self, sid: str, strategy: NodeKind
    ) -> Optional[DepNode]:
        node = self._instances.pop(sid, None)
        if node is None:
            return None
        if node.kind is not strategy:
            # The procedure's DEMAND/EAGER annotation changed since the
            # checkpoint: the restored node stays orphaned (inert — only
            # adopted nodes can re-execute), and the caller builds a
            # fresh one.
            return None
        return node

    def exhausted(self) -> bool:
        return not self._locations and not self._instances

    def __len__(self) -> int:
        return len(self._locations) + len(self._instances)


def recover(
    path: str,
    *,
    restore_values: bool = False,
    **runtime_kwargs: Any,
) -> Tuple[Runtime, RecoveryReport]:
    """Reconstruct a runtime from the checkpoint/WAL pair at ``path``.

    Returns ``(runtime, report)``; the report is also kept at
    ``runtime.last_recovery`` and, if a handler observes that kind,
    announced as a ``RECOVERY`` event.
    Extra keyword arguments are forwarded to the ``Runtime``
    constructor.
    """
    wal_path = path + ".wal"

    try:
        payload = read_checkpoint(path)
    except CheckpointCorrupt as exc:
        return _degraded(
            path, f"checkpoint: {exc}", restore_values, runtime_kwargs
        )
    if payload.get("codec") != CODEC.name:
        # Values encoded by anything but the JSON codec are never
        # decoded; the application state beside them is plain JSON.
        return _degraded(
            path,
            f"checkpoint: unsupported codec {payload.get('codec')!r}",
            restore_values,
            runtime_kwargs,
            app_state=payload.get("app_state"),
        )

    report = RecoveryReport(
        mode="clean", path=path, app_state=payload.get("app_state")
    )
    rt = Runtime(**runtime_kwargs)
    try:
        locations, instances = _materialize(rt, payload, restore_values, report)
    except Exception as exc:
        return _degraded(
            path,
            f"restore: {type(exc).__name__}: {exc}",
            restore_values,
            runtime_kwargs,
            app_state=payload.get("app_state"),
        )

    wal = WriteAheadLog.scan(wal_path)
    records, dropped_tail, corrupt = wal.as_tuple()
    report.dropped_tail = dropped_tail
    report.wal_last_lsn = wal.last_lsn
    if corrupt is not None:
        # The restored graph cannot be trusted past an unreadable log:
        # writes after the damage are unknown.  Discard it wholesale.
        return _degraded(
            path,
            corrupt,
            restore_values,
            runtime_kwargs,
            app_state=payload.get("app_state"),
        )
    try:
        for record in records:
            report.replayed += _replay(rt, locations, record, report)
        # Drain the re-marks to quiescence now: restored nodes carry no
        # thunks, so this only flips consistency flags along the
        # affected region (eager re-execution happens at adoption).
        rt.scheduler.drain_all()
    except Exception as exc:
        return _degraded(
            path,
            f"replay: {type(exc).__name__}: {exc}",
            restore_values,
            runtime_kwargs,
            app_state=payload.get("app_state"),
        )

    violations = rt.check_invariants(raise_on_violation=False)
    if violations:
        report.violations = violations
        return _degraded(
            path,
            "post-restore invariant audit failed: " + "; ".join(violations[:3]),
            restore_values,
            runtime_kwargs,
            app_state=payload.get("app_state"),
            violations=violations,
        )

    restored = RestoredState(locations, instances, restore_values)
    rt._restored = restored if len(restored) else None
    if report.replayed:
        report.mode = "replayed"
    rt.last_recovery = report
    _announce(rt, report)
    return rt, report


def _announce(rt: Runtime, report: RecoveryReport) -> None:
    """Count the recovery and emit ``RECOVERY`` if observed: the payload
    deep-copies ``app_state``, whole edit history included."""
    rt._context.stats.recoveries += 1
    if EventKind.RECOVERY in rt.events.observed:
        rt.events.emit(EventKind.RECOVERY, None, data=report.to_dict())


def _degraded(
    path: str,
    reason: str,
    restore_values: bool,
    runtime_kwargs: Dict[str, Any],
    *,
    app_state: Any = None,
    violations: Optional[List[str]] = None,
) -> Tuple[Runtime, RecoveryReport]:
    """Fresh, empty runtime: the program rebuilds exhaustively.

    Application redo records are still salvaged from the readable WAL
    prefix so app layers can replay semantic operations.
    """
    rt = Runtime(**runtime_kwargs)
    report = RecoveryReport(
        mode="degraded",
        path=path,
        reason=reason,
        app_state=app_state,
        violations=violations or [],
    )
    wal = WriteAheadLog.scan(path + ".wal")
    for record in wal.records:
        if record.get("t") == "a":
            report.app_records.append(record.get("d"))
    report.dropped_tail = wal.dropped_tail
    report.wal_last_lsn = wal.last_lsn
    report.corrupt_file = wal.corrupt_file
    report.corrupt_offset = wal.corrupt_offset
    rt.last_recovery = report
    _announce(rt, report)
    return rt, report


def _materialize(
    rt: Runtime,
    payload: Dict[str, Any],
    restore_values: bool,
    report: RecoveryReport,
) -> Tuple[Dict[str, Tuple[DepNode, Optional[str]]], Dict[str, DepNode]]:
    """Rebuild nodes, edges, values, and flags from the payload."""
    made: List[Tuple[DepNode, Dict[str, Any]]] = []
    locations: Dict[str, Tuple[DepNode, Optional[str]]] = {}
    instances: Dict[str, DepNode] = {}
    for spec in payload["nodes"]:
        kind = NodeKind(spec["kind"])
        if kind is NodeKind.STORAGE:
            node = rt.graph.new_storage_node(spec["label"])
        else:
            node = rt.graph.new_procedure_node(kind, spec["label"])
        made.append((node, spec))
    # Edges re-run height labelling and union-find partitioning, so
    # labels and partitions come back for free (the checkpoint stores
    # neither).
    for src, dst in payload.get("edges", ()):
        rt.graph.create_edge(made[src][0], made[dst][0])
    for node, spec in made:
        node.consistent = bool(spec["consistent"])
        node.static_edges = bool(spec.get("static_edges"))
        node.edges_frozen = bool(spec.get("edges_frozen"))
        poison = spec.get("poison")
        if poison is not None:
            node.value = Poisoned(
                RestoredFault(poison.get("error", "?")),
                poison.get("origin", "?"),
            )
            rt._poison_live += 1
        elif spec.get("has_value") and spec.get("value") is not None:
            if node.kind is not NodeKind.STORAGE or restore_values:
                node.value = CODEC.decode(spec["value"])
            # Warm start leaves storage at NO_VALUE: the live value is
            # authoritative and any first write must detect a change.
        sid = spec["sid"]
        if node.kind is NodeKind.STORAGE:
            locations[sid] = (node, spec.get("fp"))
        else:
            instances[sid] = node
    for node, spec in made:
        if spec.get("pending"):
            rt.partitions.mark(node)
    report.restored_nodes = len(made)
    report.restored_edges = len(payload.get("edges", ()))
    return locations, instances


def _replay(
    rt: Runtime,
    locations: Dict[str, Tuple[DepNode, Optional[str]]],
    record: Dict[str, Any],
    report: RecoveryReport,
) -> int:
    """Re-apply one WAL record; returns the writes replayed."""
    rtype = record.get("t")
    if rtype == "a":
        report.app_records.append(record.get("d"))
        return 0
    if rtype == "w":
        writes: List[Dict[str, Any]] = [record]
    elif rtype == "b":
        writes = record.get("w", [])
    else:
        raise ValueError(f"unknown WAL record type {rtype!r}")
    replayed = 0
    for write in writes:
        entry = locations.get(write.get("sid"))
        if entry is None:
            # A location first written after the checkpoint: it has no
            # restored node (and no restored dependents), so the
            # reconstruction recreates it from scratch.
            continue
        node, _stale_fp = entry
        encoded = write.get("v")
        if encoded is not None:
            try:
                node.value = CODEC.decode(encoded)
            except CodecError:
                node.value = NO_VALUE
        else:
            node.value = NO_VALUE
        # The fingerprint the location must validate against at bind
        # time is now the *replayed* value's, not the checkpoint's.
        locations[write["sid"]] = (node, write.get("fp"))
        rt.partitions.mark(node)
        replayed += 1
    return replayed
