"""Standby-side stream application: warm replicas, gap detection.

A :class:`StandbyApplier` owns a serve-state root on the standby host
and keeps it byte-equivalent to the primary's: every applied ``wal``
record is appended to the replica's WAL, and every ``ckpt`` record
atomically replaces the checkpoint and truncates the replica WAL —
exactly mirroring the checkpoint-anchored truncation the primary
performed.  The session's edit history needs no stream of its own: the
checkpoint carries it and the WAL's ``set_formula`` records extend it.
Because the replica is maintained as *files*, promotion needs no
special machinery: :func:`repro.replicate.promote.promote_root` simply
opens each session directory through the ordinary resurrection path,
which replays the WAL tail via lazy-adoption recovery like any crash
restart would.

Warmth is a separate, optional layer: every ``warm_every`` applied
records of a session, the worker that applied the record runs a full
:meth:`~repro.spreadsheet.Spreadsheet.load` of the tenant (checkpoint
adoption plus the whole WAL tail) and keeps the sheet in memory.
``load`` recovers without attaching a persistence manager, so a warm
replica only ever *reads* the replica files — it can never corrupt the
stream it mirrors, and it never folds the WAL tail into a checkpoint.
A reload shows that the replica loads and records the LSN it loaded at
(``warm_lsn`` in :meth:`StandbyApplier.status`); a failed one becomes a
flight note.  It does not shorten a promotion: ``Server.promote``
closes the applier, dropping every warm sheet, before it reopens each
session from the files, and ``promote_root`` never uses the applier.

Gap detection is strict: a record whose LSN is not exactly
``position + 1``, or whose payload fails its frame CRC, or whose WAL
line fails the *embedded* WAL CRC, refuses the whole remainder of the
frame.  The good prefix is kept (positions advance per record applied),
the NACK names the LSN the standby expects, and the primary heals with
a resync frame.  Positions persist in ``sheet.pos`` sidecars so a
restarted standby resumes detection rather than trusting the wire.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, Optional

from ..persist.wal import WriteAheadLog, _line_crc_ok
from ..spreadsheet import Spreadsheet
from .stream import StreamPosition, ack, nack, verify_record

__all__ = ["StandbyApplier"]


class StandbyApplier:
    """Apply replication frames into a local serve-state root."""

    def __init__(
        self,
        root: str,
        *,
        warm_every: int = 64,
        metrics: Any = None,
        flight: Any = None,
    ) -> None:
        self.root = root
        self.warm_every = warm_every
        self.metrics = metrics
        self.flight = flight
        self.applied_total = 0
        self.gaps = 0
        self.resyncs = 0
        self._positions: Dict[str, StreamPosition] = {}
        self._handles: Dict[str, Any] = {}
        self._since_warm: Dict[str, int] = {}
        self._warm: Dict[str, Dict[str, Any]] = {}
        # Per-sid work arrives on that sid's pinned worker; the lock
        # only guards the cross-sid maps for direct multi-threaded use.
        self._lock = threading.Lock()
        self._closed = False
        os.makedirs(root, exist_ok=True)

    # -- paths / bookkeeping -------------------------------------------

    def _base(self, sid: str) -> str:
        if not sid or "/" in sid or "\\" in sid or sid in (".", ".."):
            raise ValueError(f"invalid session id {sid!r}")
        path = os.path.join(self.root, sid, "sheet")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def _position(self, sid: str) -> StreamPosition:
        with self._lock:
            pos = self._positions.get(sid)
            if pos is None:
                pos = StreamPosition(self._base(sid) + ".pos")
                self._positions[sid] = pos
            return pos

    def _wal_handle(self, sid: str):
        """A cached append handle for the sid's replica WAL."""
        with self._lock:
            fh = self._handles.get(sid)
            if fh is None:
                fh = open(self._base(sid) + ".wal", "a", encoding="utf-8")
                self._handles[sid] = fh
            return fh

    def _flush_handle(self, sid: str) -> None:
        with self._lock:
            fh = self._handles.get(sid)
        if fh is not None:
            fh.flush()

    def _drop_handle(self, sid: str) -> None:
        with self._lock:
            fh = self._handles.pop(sid, None)
        if fh is not None:
            try:
                fh.close()
            except OSError:
                pass

    # -- frame application ---------------------------------------------

    def apply(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Apply one ``ship`` frame; returns the ack/nack result dict.

        Raises ``ValueError`` for structurally invalid frames (the
        server surfaces that as a 400); stream-level damage — gaps, CRC
        failures — is answered with a NACK, never an exception.
        """
        if self._closed:
            raise ValueError("standby applier is closed")
        if not isinstance(frame, dict):
            raise ValueError("ship frame must be an object")
        kind = frame.get("kind")
        sid = frame.get("sid")
        if not isinstance(sid, str):
            raise ValueError("ship frame requires a 'sid' string")
        if kind == "resync":
            return self._apply_resync(sid, frame)
        if kind == "records":
            return self._apply_records(sid, frame)
        raise ValueError(f"unknown ship frame kind {kind!r}")

    def _apply_records(self, sid: str, frame: Dict[str, Any]) -> Dict[str, Any]:
        records = frame.get("records")
        if not isinstance(records, list) or not records:
            raise ValueError("'records' must be a non-empty list")
        pos = self._position(sid)
        applied = 0
        refusal: Optional[str] = None
        for record in records:
            reason = verify_record(record)
            if reason is None and record["lsn"] != pos.lsn + applied + 1:
                reason = (
                    f"lsn gap: got {record['lsn']}, "
                    f"expected {pos.lsn + applied + 1}"
                )
            if reason is None and record["k"] == "wal" and (
                not _line_crc_ok(record["p"].encode("utf-8"))
            ):
                reason = f"WAL line fails embedded CRC at lsn {record['lsn']}"
            if reason is not None:
                refusal = reason
                break
            self._apply_one(sid, record)
            applied += 1
        self._flush_handle(sid)
        if applied:
            pos.advance(pos.lsn + applied, applied=applied)
            self.applied_total += applied
            self._since_warm[sid] = self._since_warm.get(sid, 0) + applied
            if self.metrics is not None:
                self.metrics.repl_records_applied.inc(applied)
            if (
                self.warm_every
                and self._since_warm[sid] >= self.warm_every
            ):
                self._warm_refresh(sid)
        if refusal is not None:
            return self._gap(sid, pos, refusal)
        return ack(sid, pos.lsn)

    def _apply_one(self, sid: str, record: Dict[str, Any]) -> None:
        kind, payload = record["k"], record["p"]
        if kind == "ckpt":
            base = self._base(sid)
            tmp = base + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, base)
            # Mirror the primary's checkpoint-anchored WAL truncation.
            self._drop_handle(sid)
            wal_path = base + ".wal"
            for segment in WriteAheadLog.segment_files(wal_path):
                os.remove(segment)
            open(wal_path, "w").close()
            return
        # Buffered append; _apply_records flushes once per frame so a
        # multi-record frame pays one write syscall.
        self._wal_handle(sid).write(payload + "\n")

    def _apply_resync(self, sid: str, frame: Dict[str, Any]) -> Dict[str, Any]:
        base = self._base(sid)
        self._drop_handle(sid)
        self._drop_warm(sid)
        lsn = frame.get("lsn")
        if not isinstance(lsn, int) or lsn < 0:
            raise ValueError(f"resync frame has bad lsn {lsn!r}")
        ckpt = frame.get("ckpt")
        if ckpt is None:
            if os.path.exists(base):
                os.remove(base)
        else:
            tmp = base + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(ckpt)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, base)
        wal_path = base + ".wal"
        for segment in WriteAheadLog.segment_files(wal_path):
            os.remove(segment)
        with open(wal_path, "w", encoding="utf-8") as fh:
            fh.write(frame.get("wal") or "")
        pos = self._position(sid)
        pos.reset(lsn)
        self.resyncs += 1
        self._since_warm[sid] = 0
        if self.flight is not None:
            self.flight.note(
                "replication", f"resync {sid}", data={"lsn": lsn}
            )
        return ack(sid, lsn)

    def _gap(self, sid: str, pos: StreamPosition, reason: str) -> Dict[str, Any]:
        self.gaps += 1
        if self.metrics is not None:
            self.metrics.repl_gaps.inc()
        if self.flight is not None:
            self.flight.note(
                "replication",
                f"gap {sid}",
                data={"expect": pos.expect(), "reason": reason},
            )
        return nack(sid, pos.expect(), reason)

    # -- warm replicas --------------------------------------------------

    def _warm_refresh(self, sid: str) -> None:
        """Load the session afresh from the replica files and keep the
        sheet, with the LSN it was loaded at."""
        self._drop_warm(sid)
        try:
            sheet, report = Spreadsheet.load(self._base(sid))
        except Exception as exc:  # noqa: BLE001 - warmth is best-effort
            if self.flight is not None:
                self.flight.note(
                    "replication", f"warm refresh failed {sid}",
                    data={"error": str(exc)},
                )
            self._since_warm[sid] = 0
            return
        with self._lock:
            self._warm[sid] = {
                "sheet": sheet,
                "lsn": self._positions[sid].lsn,
                "mode": report.mode,
                "replayed": report.replayed,
            }
        self._since_warm[sid] = 0

    def _drop_warm(self, sid: str) -> None:
        with self._lock:
            warm = self._warm.pop(sid, None)
        if warm is not None:
            try:
                warm["sheet"].runtime.close()
            except Exception:  # noqa: BLE001 - teardown must not raise
                pass

    def warm_sheet(self, sid: str):
        """The in-memory warm replica, if one is loaded (read-only)."""
        with self._lock:
            warm = self._warm.get(sid)
        return None if warm is None else warm["sheet"]

    # -- observability / lifecycle -------------------------------------

    def status(self) -> Dict[str, Any]:
        with self._lock:
            sessions = {
                sid: dict(
                    pos.to_dict(),
                    warm_lsn=(self._warm.get(sid) or {}).get("lsn"),
                )
                for sid, pos in self._positions.items()
            }
        return {
            "role": "standby",
            "root": self.root,
            "sessions": sessions,
            "applied_records": self.applied_total,
            "gaps": self.gaps,
            "resyncs": self.resyncs,
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with self._lock:
            positions = list(self._positions.values())
        for pos in positions:
            pos.flush()
        for sid in list(self._handles):
            self._drop_handle(sid)
        for sid in list(self._warm):
            self._drop_warm(sid)
