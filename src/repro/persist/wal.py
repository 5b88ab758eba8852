"""Write-ahead log of committed writes, and the persistence manager.

The WAL makes the window between checkpoints durable: every committed
tracked write (or batch of writes) is appended as one CRC-guarded text
line, so recovery = load the last checkpoint, replay the WAL tail,
re-mark the replayed locations, drain to quiescence.

Record format: ``{crc32:08x} {canonical-json}\\n`` per line.  Records::

    {"t": "w", "sid": ..., "v": <encoded|null>, "fp": <fingerprint|null>}
    {"t": "b", "w": [<write>, ...]}          # one committed batch
    {"t": "a", "d": <application payload>}   # app-level redo record

Every appended record additionally carries a log-local ``lsn`` — a
monotonically increasing sequence number, resumed across reopens and
reset by checkpoint truncation.  The LSN is what replication gap
detection and the parallel-drain ordering property key on: a log whose
LSNs are not strictly increasing was interleaved incorrectly.

Segment rotation (``segment_records``): when set, the active file is
sealed to ``<path>.segNNNNNN`` every N records and a fresh active file
opened.  A checkpoint truncates the log (:meth:`WriteAheadLog.truncate`
deletes every sealed segment and empties the active file), so the
segment set on disk is exactly "the records since the last checkpoint"
— which is what a warm standby fetches to join mid-life
(``checkpoint + segments since``; see ``docs/replication.md``).

Torn-tail tolerance: a final line with no trailing newline that fails
to parse is the signature of a crash mid-append and is silently
dropped — the write it described was never acknowledged.  Any invalid
line *followed by more data* (or a complete-but-garbled line, or any
damage in a sealed segment) is real corruption and fails the whole
log, which ``recover()`` turns into degraded mode.
:meth:`WriteAheadLog.scan` reports the file and byte offset of the
first bad record, so operators (and replication resync) can point at
the exact tail instead of rereading the whole log by hand.

Durability trade: appends are flushed to the OS per record (surviving
process death, the failure mode this subsystem targets) but not
fsynced (surviving power loss costs a checkpoint or an explicit
:meth:`WriteAheadLog.sync`).  Per-record fsync would put WAL overhead
far beyond the ≤1.5× write-workload budget.

:class:`PersistenceManager` ties a WAL and checkpoint path to a live
runtime purely through EventBus subscriptions — the transaction layer
needed no changes: the manager buffers ``CHANGE_DETECTED`` between
``BATCH_STARTED`` and ``BATCH_COMMIT`` into a single atomic batch
record, drops the buffer on ``ROLLBACK``, and logs unbatched changes
individually.  The log is strictly a *redo* log of committed state.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.events import EventKind
from .codec import CODEC, CodecError
from .ids import fingerprint
from .snapshot import write_checkpoint

__all__ = ["PersistenceManager", "WalScan", "WriteAheadLog"]

#: Sealed-segment suffix: ``<path>.seg000001`` etc., ordered by number.
_SEGMENT_RE = re.compile(r"\.seg(\d{6})$")

#: Canonical record encoder, built once: ``json.dumps`` with keyword
#: arguments constructs a new encoder on every call.
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclasses.dataclass
class WalScan:
    """Typed outcome of one :meth:`WriteAheadLog.scan`.

    ``records`` is the readable prefix across every segment in order;
    ``dropped_tail`` marks a tolerated torn final append.  When the log
    is damaged anywhere else, ``corrupt`` carries the reason and
    ``corrupt_file``/``corrupt_offset`` name the file and the byte
    offset of the first bad record's line — the exact tail replication
    gap detection and operators resume or resync from.  ``last_lsn`` is
    the highest LSN among the readable records (0 for an empty log or a
    pre-LSN log).
    """

    records: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    dropped_tail: bool = False
    corrupt: Optional[str] = None
    corrupt_file: Optional[str] = None
    corrupt_offset: Optional[int] = None
    last_lsn: int = 0
    files: List[str] = dataclasses.field(default_factory=list)

    def as_tuple(self) -> Tuple[List[Dict[str, Any]], bool, Optional[str]]:
        return self.records, self.dropped_tail, self.corrupt


class WriteAheadLog:
    """Append-only CRC-per-record log: an active file plus optional
    sealed segments.

    ``segment_records`` (constructor argument or mutable attribute)
    enables rotation: after that many records the active file is sealed
    to ``<path>.segNNNNNN`` and a fresh active file opened.  Readers
    (:meth:`scan`/:meth:`read`) always see the concatenation of sealed
    segments plus the active file, so rotation is invisible to
    recovery.
    """

    def __init__(
        self, path: str, *, segment_records: Optional[int] = None
    ) -> None:
        self.path = path
        #: Seal the active file after this many records (None = never).
        self.segment_records = segment_records
        self._fh = open(path, "a", encoding="utf-8")
        self.records_written = 0
        #: Records in the active (not yet sealed) file.
        self.active_records = 0
        #: Highest LSN ever appended to this log (resumed across
        #: reopens, reset by truncation).
        self.last_lsn = 0
        #: Sealed segments created over this handle's lifetime.
        self.segments_sealed = 0
        #: Observation tap: called with ``(line, record)`` after every
        #: durable append — the serve layer's replication shipper hangs
        #: off this.  A tap must not raise; failures are counted, never
        #: allowed to fail the (already durable) local write.
        self.on_append: Optional[Callable[[str, Dict[str, Any]], None]] = None
        self.tap_errors = 0
        self._resume_state()
        #: Test seam for simulated crashes: ``(prefix_bytes, exception)``
        #: makes the next append write only a torn prefix of its line,
        #: then raise.  One-shot.
        self._torn: Optional[Tuple[int, BaseException]] = None

    def _resume_state(self) -> None:
        """Resume LSN numbering and active-record count from disk."""
        try:
            with open(self.path, "rb") as fh:
                raw = fh.read()
        except OSError:
            raw = b""
        active_lines = [ln for ln in raw.split(b"\n") if ln]
        self.active_records = len(active_lines)
        files = [*self.segment_files(self.path), self.path]
        for file in reversed(files):
            lsn = _last_lsn_in(file)
            if lsn is not None:
                self.last_lsn = lsn
                return
        # Pre-LSN (or empty) log: number after whatever is there so
        # LSNs stay monotonic even when old records carry none.
        total = self.active_records
        for segment in self.segment_files(self.path):
            total += sum(
                1 for ln in open(segment, "rb").read().split(b"\n") if ln
            )
        self.last_lsn = total

    def append(self, record: Dict[str, Any]) -> int:
        """Append one record; returns the LSN it was stamped with."""
        lsn = self.last_lsn + 1
        record = dict(record, lsn=lsn)
        body = _RECORD_ENCODER.encode(record)
        crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
        line = f"{crc:08x} {body}\n"
        torn = self._torn
        if torn is not None:
            self._torn = None
            prefix, exc = torn
            self._fh.write(line[:prefix])
            self._fh.flush()
            raise exc
        self._fh.write(line)
        self._fh.flush()
        self.last_lsn = lsn
        self.records_written += 1
        self.active_records += 1
        if (
            self.segment_records is not None
            and self.active_records >= self.segment_records
        ):
            self._rotate()
        if self.on_append is not None:
            try:
                self.on_append(line, record)
            except Exception:  # noqa: BLE001 - a tap must never fail a write
                self.tap_errors += 1
        return lsn

    def _rotate(self) -> None:
        """Seal the active file into the next numbered segment."""
        existing = self.segment_files(self.path)
        if existing:
            last = _SEGMENT_RE.search(existing[-1])
            seq = int(last.group(1)) + 1 if last else 1
        else:
            seq = 1
        self._fh.close()
        os.replace(self.path, f"{self.path}.seg{seq:06d}")
        self._fh = open(self.path, "a", encoding="utf-8")
        self.active_records = 0
        self.segments_sealed += 1

    def sync(self) -> None:
        """fsync the log (power-loss durability on demand)."""
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def truncate(self) -> None:
        """Discard every record (a checkpoint subsumed them).

        Checkpoint-anchored: sealed segments are deleted together with
        the active records, so what remains on disk after a checkpoint
        is exactly the (empty) tail since it, and LSN numbering
        restarts at 1 for the new checkpoint epoch.
        """
        for segment in self.segment_files(self.path):
            try:
                os.remove(segment)
            except OSError:  # pragma: no cover - already gone
                pass
        self._fh.seek(0)
        self._fh.truncate(0)
        self._fh.flush()
        self.active_records = 0
        self.last_lsn = 0

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:  # pragma: no cover
            pass

    @staticmethod
    def segment_files(path: str) -> List[str]:
        """The sealed segments of the log at ``path``, oldest first."""
        directory = os.path.dirname(path) or "."
        base = os.path.basename(path)
        try:
            names = os.listdir(directory)
        except OSError:
            return []
        out = []
        for name in names:
            if name.startswith(base) and _SEGMENT_RE.search(
                name[len(base):] or ""
            ) and name[: len(base)] == base:
                out.append(os.path.join(directory, name))
        return sorted(out)

    @classmethod
    def scan(cls, path: str) -> WalScan:
        """Parse the whole log (sealed segments + active file) at
        ``path``; see :class:`WalScan`.  A missing file is an empty,
        healthy log.
        """
        result = WalScan()
        files = [*cls.segment_files(path), path]
        result.files = files
        for file_index, file in enumerate(files):
            is_active = file_index == len(files) - 1
            try:
                with open(file, "rb") as fh:
                    raw = fh.read()
            except FileNotFoundError:
                continue
            except OSError as exc:
                result.corrupt = f"unreadable WAL: {exc}"
                result.corrupt_file = file
                return result
            if not raw:
                continue
            complete_tail = raw.endswith(b"\n")
            lines = raw.split(b"\n")
            if complete_tail:
                lines.pop()  # the empty string after the final newline
            offset = 0
            for i, line in enumerate(lines):
                record = _parse_line(line)
                if record is None:
                    if (
                        is_active
                        and i == len(lines) - 1
                        and not complete_tail
                    ):
                        # Torn final append: the crash artifact the
                        # format is designed to tolerate.
                        result.dropped_tail = True
                        return result
                    result.corrupt = (
                        f"WAL record {i} of {os.path.basename(file)} is "
                        f"corrupt (byte offset {offset})"
                    )
                    result.corrupt_file = file
                    result.corrupt_offset = offset
                    return result
                result.records.append(record)
                lsn = record.get("lsn")
                if isinstance(lsn, int) and lsn > result.last_lsn:
                    result.last_lsn = lsn
                offset += len(line) + 1
        return result

    @classmethod
    def read(
        cls,
        path: str,
    ) -> Tuple[List[Dict[str, Any]], bool, Optional[str]]:
        """Parse the log at ``path``.

        Returns ``(records, dropped_tail, corrupt_reason)``:
        ``dropped_tail`` is True when a torn final append was tolerated;
        ``corrupt_reason`` is non-None when the log is damaged anywhere
        else (the records parsed before the damage are still returned,
        but callers must not trust the log as a whole).
        A missing file is an empty, healthy log.  :meth:`scan` returns
        the same information plus the damage location and last LSN.
        """
        return cls.scan(path).as_tuple()


def _last_lsn_in(path: str) -> Optional[int]:
    """The LSN of the last parseable record in ``path`` (None if none)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    for line in reversed(raw.split(b"\n")):
        if not line:
            continue
        record = _parse_line(line)
        if record is not None:
            lsn = record.get("lsn")
            return lsn if isinstance(lsn, int) else None
    return None


def _line_crc_ok(line: bytes) -> bool:
    """Whether a WAL line's embedded CRC matches its body.

    The cheap half of :func:`_parse_line`: replication re-verifies
    every shipped WAL line on the standby's hot apply path, where the
    JSON decode would double the cost for bytes that are only ever
    appended verbatim.
    """
    if len(line) < 10 or line[8:9] != b" ":
        return False
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return False
    return zlib.crc32(line[9:]) & 0xFFFFFFFF == crc


def _parse_line(line: bytes) -> Optional[Dict[str, Any]]:
    if len(line) < 10 or line[8:9] != b" ":
        return None
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    body = line[9:]
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        return None
    try:
        record = json.loads(body.decode("utf-8"))
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


class PersistenceManager:
    """Durability for one runtime: WAL at ``path + ".wal"``, checkpoints
    at ``path``.

    Created by ``rt.persist_to(path)``.  Pure EventBus subscriber on the
    write path; :meth:`checkpoint` snapshots the graph and truncates the
    WAL it subsumes.  :meth:`log_app` appends an application-level redo
    record (surfaced by recovery as ``RecoveryReport.app_records`` in
    order, for layers that replay semantic operations — see the
    spreadsheet's formula log).  :attr:`changed` says whether a new
    checkpoint could differ from the one on disk.
    """

    def __init__(
        self,
        rt: Any,
        path: str,
        *,
        segment_records: Optional[int] = None,
    ) -> None:
        self.runtime = rt
        self.path = path
        self.wal = WriteAheadLog(
            path + ".wal", segment_records=segment_records
        )
        self._buffer: Optional[List[Dict[str, Any]]] = None
        self._app_buffer: Optional[List[Any]] = None
        #: Test seam forwarded to ``write_checkpoint(crash_hook=...)``.
        self._checkpoint_crash_hook: Optional[Callable[[str], None]] = None
        self._subscriptions = (
            (EventKind.BATCH_STARTED, self._on_batch_started),
            (EventKind.CHANGE_DETECTED, self._on_change),
            (EventKind.BATCH_COMMIT, self._on_batch_commit),
            (EventKind.ROLLBACK, self._on_rollback),
        )
        for kind, handler in self._subscriptions:
            rt.events.subscribe(kind, handler)
        # Attaching adopts the files at ``path`` as the graph's durable
        # state: the caller either just recovered from them or cuts a
        # checkpoint next.
        self._settled = self._progress()

    def _progress(self) -> Tuple[int, ...]:
        """The WAL position and the counters of every change a checkpoint
        records: tracked writes, and bodies run, poisoned or marked
        inconsistent."""
        stats = self.runtime.stats
        return (
            self.wal.last_lsn,
            stats.modifies,
            stats.executions,
            stats.nodes_poisoned,
            stats.inconsistent_marks,
        )

    @property
    def changed(self) -> bool:
        """Whether a WAL record was appended, or the graph or its
        storage changed, since the last checkpoint (or since attach, for
        a manager reattached to the state it was recovered from).

        Reads alone leave it False: a cache hit, and a restored node
        adopted without running its body, change nothing a checkpoint
        would add — the one on disk already holds those nodes.  Writes
        count even when they log nothing (a location no node tracks
        yet): application state checkpointed beside the graph may still
        have moved.
        """
        return self._progress() != self._settled

    # -- event handlers ---------------------------------------------------

    def _on_batch_started(
        self, kind: EventKind, node: Any, amount: int, data: Any
    ) -> None:
        self._buffer = []
        self._app_buffer = []

    def _on_change(
        self, kind: EventKind, node: Any, amount: int, data: Any
    ) -> None:
        entry = self._entry_for(node)
        if entry is None:
            return
        if self._buffer is not None:
            self._buffer.append(entry)
        else:
            self._append(dict(entry, t="w"), "write")

    def _on_batch_commit(
        self, kind: EventKind, node: Any, amount: int, data: Any
    ) -> None:
        writes, self._buffer = self._buffer, None
        if writes:
            self._append({"t": "b", "w": writes}, "batch")
        app_records, self._app_buffer = self._app_buffer, None
        for data_record in app_records or ():
            self._append({"t": "a", "d": data_record}, "app")

    def _on_rollback(
        self, kind: EventKind, node: Any, amount: int, data: Any
    ) -> None:
        # Rolled back: nothing committed, nothing logged.
        self._buffer = None
        self._app_buffer = None

    # -- record construction ---------------------------------------------

    def _entry_for(self, node: Any) -> Optional[Dict[str, Any]]:
        sid = getattr(node.ref, "_sid", None)
        if not isinstance(sid, str):
            return None
        value = node.value
        try:
            encoded = CODEC.encode(value)
        except CodecError:
            encoded = None  # replay falls back to the fingerprint
        return {"sid": sid, "v": encoded, "fp": fingerprint(value)}

    def _append(self, record: Dict[str, Any], kind: str) -> None:
        self.wal.append(record)
        self.runtime._context.stats.wal_records += 1
        if EventKind.WAL_APPEND in self.runtime.events.observed:
            self.runtime.events.emit(EventKind.WAL_APPEND, None, data={"kind": kind})

    # -- public surface ---------------------------------------------------

    def log_app(self, data: Any) -> None:
        """Append an application-level redo record (JSON-able).

        Inside a ``rt.batch()`` the record is buffered with the batch —
        flushed (after the batch's write record) on commit, dropped on
        rollback — so the log never replays a rolled-back operation.
        """
        if self._app_buffer is not None:
            self._app_buffer.append(data)
        else:
            self._append({"t": "a", "d": data}, "app")

    def checkpoint(self, app_state: Any = None) -> str:
        """Snapshot the graph and truncate the WAL it subsumes."""
        count = write_checkpoint(
            self.runtime,
            self.path,
            app_state=app_state,
            crash_hook=self._checkpoint_crash_hook,
        )
        self.wal.truncate()
        self._settled = self._progress()
        self.runtime._context.stats.checkpoints += 1
        if EventKind.CHECKPOINT in self.runtime.events.observed:
            self.runtime.events.emit(
                EventKind.CHECKPOINT, None, data={"path": self.path, "nodes": count}
            )
        return self.path

    def close(self) -> None:
        """Detach from the runtime and close the log."""
        for kind, handler in self._subscriptions:
            self.runtime.events.unsubscribe(kind, handler)
        # Bound methods of self: keeping them would hold the closed
        # manager on a reference cycle.
        self._subscriptions = ()
        self.wal.close()
        if self.runtime._persist is self:
            self.runtime._persist = None
