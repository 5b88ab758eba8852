"""Session lifecycle: open, apply, evict-close, resurrect."""

import json
import os

import pytest

from repro.ag.expr import Exp
from repro.core import maintained
from repro.obs import FlightRecorder, MetricsRegistry
from repro.serve import ServeConfig, Session, SessionOpError
from repro.serve.loadgen import _replay_serially
from repro.serve.protocol import ProtocolError


def make_config(tmp_path, **kw):
    kw.setdefault("root", str(tmp_path / "state"))
    kw.setdefault("rows", 4)
    kw.setdefault("cols", 4)
    kw.setdefault("watchdog_max_steps", 10_000)
    return ServeConfig(**kw)


class TestFreshSession:
    def test_open_write_read_dump(self, tmp_path):
        session = Session.open("t1", make_config(tmp_path))
        try:
            assert not session.resurrected
            result = session.apply(
                {"op": "write", "session": "t1",
                 "cells": [[0, 0, 5], [1, 0, "R0C0 + 2"]]}
            )
            assert result == {"applied": 2}
            read = session.apply(
                {"op": "read", "session": "t1", "row": 1, "col": 0}
            )
            assert read == {"value": 7, "stale": False}
            dump = session.apply({"op": "dump", "session": "t1"})
            assert dump["values"][1][0] == 7
            assert dump["values"][3][3] == 0  # untouched cell
        finally:
            session.close()

    def test_edit_log_records_execution_order(self, tmp_path):
        session = Session.open("t1", make_config(tmp_path))
        try:
            session.apply(
                {"op": "write", "session": "t1", "cells": [[0, 0, 1]]}
            )
            session.apply(
                {"op": "batch", "session": "t1",
                 "cells": [[0, 1, 2], [0, 2, "R0C0 + R0C1"]]}
            )
            log = session.apply({"op": "log", "session": "t1"})
            assert log["edits"] == [[0, 0, 1], [0, 1, 2], [0, 2, "R0C0 + R0C1"]]
        finally:
            session.close()

    def test_failed_batch_rolls_back_and_logs_nothing(self, tmp_path):
        session = Session.open("t1", make_config(tmp_path))
        try:
            session.apply(
                {"op": "write", "session": "t1", "cells": [[0, 0, 9]]}
            )
            with pytest.raises(SessionOpError, match="rolled back"):
                session.apply(
                    {"op": "batch", "session": "t1",
                     "cells": [[0, 0, 1], [0, 1, "this is )( not a formula"]]}
                )
            log = session.apply({"op": "log", "session": "t1"})
            assert log["edits"] == [[0, 0, 9]]
            read = session.apply(
                {"op": "read", "session": "t1", "row": 0, "col": 0}
            )
            assert read["value"] == 9  # the rollback restored the cell
        finally:
            session.close()

    def test_audit_and_stats(self, tmp_path):
        session = Session.open("t1", make_config(tmp_path))
        try:
            session.apply(
                {"op": "write", "session": "t1", "cells": [[0, 0, 3]]}
            )
            audit = session.apply({"op": "audit", "session": "t1"})
            assert audit == {"violations": [], "sound": True}
            stats = session.apply({"op": "stats", "session": "t1"})
            assert stats["sid"] == "t1"
            assert stats["edits"] == 1
            assert stats["requests"] == 3
        finally:
            session.close()

    def test_explain_names_the_write(self, tmp_path):
        session = Session.open("t1", make_config(tmp_path))
        try:
            session.apply(
                {"op": "write", "session": "t1",
                 "cells": [[0, 0, 5], [1, 1, "R0C0 + 1"]]}
            )
            session.apply(
                {"op": "read", "session": "t1", "row": 1, "col": 1}
            )
            explanation = session.apply(
                {"op": "explain", "session": "t1", "row": 1, "col": 1}
            )["explanation"]
            assert "R1C1" in explanation
        finally:
            session.close()

    def test_explain_chain_reaches_the_written_cell(self, tmp_path):
        session = Session.open("t1", make_config(tmp_path))
        try:
            for request in (
                {"op": "write", "cells": [[0, 0, 5], [1, 1, "R0C0 + 1"]]},
                {"op": "read", "row": 1, "col": 1},
                {"op": "write", "cells": [[0, 0, 7]]},
                {"op": "read", "row": 1, "col": 1},
            ):
                session.apply(dict(request, session="t1"))
            text = session.apply(
                {"op": "explain", "session": "t1", "row": 1, "col": 1}
            )["explanation"]
            head, *links = text.splitlines()
            assert head == "SheetCell.value(R1C1): recomputed"
            (change,) = [line for line in links if "change-detected" in line]
            assert "read by SheetCell.value(R0C0)" in change
            assert "re-executed      SheetCell.value(R1C1)" in links[-2]
        finally:
            session.close()

    def test_flight_view_stays_flight_sized_beside_explain(self, tmp_path):
        capacity = 8
        session = Session.open(
            "t1", make_config(tmp_path, flight_capacity=capacity)
        )
        try:
            session.apply(
                {"op": "write", "session": "t1",
                 "cells": [[0, 0, 5], [1, 1, "R0C0 + 1"]]}
            )
            session.apply({"op": "read", "session": "t1", "row": 1, "col": 1})
            session.apply(
                {"op": "write", "session": "t1", "cells": [[0, 0, 7]]}
            )
            hot_before = session.flight.recorded
            for _ in range(3 * capacity):  # each read notes a session-op
                session.apply(
                    {"op": "read", "session": "t1", "row": 1, "col": 1}
                )
            assert session.flight.recorded - hot_before > 2 * capacity
            flight_kinds = {k.value for k in FlightRecorder.DEFAULT_KINDS}
            debug = session.apply({"op": "debug", "session": "t1", "dump": True})
            with open(debug["path"], encoding="utf-8") as fh:
                dumped = [json.loads(line) for line in fh][1:]
            for records in (debug["records"], dumped):
                assert 0 < len(records) <= capacity
                assert {r["kind"] for r in records} <= flight_kinds | {
                    "session-op"
                }
            # The ring itself stays flight-sized: explain reads the
            # stamps on the graph, not records.
            assert session.flight._ring.maxlen == capacity
            assert debug["dropped"] > 0
            explanation = session.runtime.explain("(R1C1)")
            assert explanation.verdict == "recomputed"
            assert explanation.kinds()[:2] == ["write", "change-detected"]
        finally:
            session.close()

    def test_malformed_arguments_are_400s(self, tmp_path):
        session = Session.open("t1", make_config(tmp_path))
        try:
            for request in (
                {"op": "write", "session": "t1"},
                {"op": "write", "session": "t1", "cells": []},
                {"op": "write", "session": "t1", "cells": [[0, 0]]},
                {"op": "read", "session": "t1", "row": "x", "col": 0},
                {"op": "read", "session": "t1", "row": 0, "col": 0,
                 "staleness": "eventually"},
            ):
                with pytest.raises(ProtocolError):
                    session.apply(request)
        finally:
            session.close()

    def test_out_of_range_write_is_422(self, tmp_path):
        session = Session.open("t1", make_config(tmp_path))
        try:
            with pytest.raises(SessionOpError):
                session.apply(
                    {"op": "write", "session": "t1", "cells": [[99, 0, 1]]}
                )
        finally:
            session.close()


class _Exploding(Exp):
    @maintained
    def value(self):
        raise RuntimeError("boom")


class TestDegradedReads:
    def test_fresh_read_of_poisoned_cell_is_422(self, tmp_path):
        session = Session.open("t1", make_config(tmp_path))
        try:
            with session.runtime.active():
                session.sheet.set_formula(0, 0, _Exploding())
            with pytest.raises(SessionOpError):
                session.apply(
                    {"op": "read", "session": "t1", "row": 0, "col": 0}
                )
        finally:
            session.close()

    def test_allow_stale_read_degrades_instead(self, tmp_path):
        session = Session.open("t1", make_config(tmp_path))
        try:
            with session.runtime.active():
                session.sheet.set_formula(0, 0, _Exploding())
            result = session.apply(
                {"op": "read", "session": "t1", "row": 0, "col": 0,
                 "staleness": "allow-stale"}
            )
            assert result["stale"] is True
            assert result["value"] == "#STALE?"  # never computed a good value
            assert "boom" in result["error"]
        finally:
            session.close()


class TestCloseAndResurrect:
    def test_close_is_idempotent_and_rejects_after(self, tmp_path):
        session = Session.open("t1", make_config(tmp_path))
        session.close()
        session.close()
        assert session.closed
        assert session.runtime.closed
        with pytest.raises(SessionOpError, match="closed"):
            session.apply({"op": "dump", "session": "t1"})

    def test_resurrection_restores_values_and_edit_log(self, tmp_path):
        config = make_config(tmp_path)
        session = Session.open("t1", config)
        session.apply(
            {"op": "write", "session": "t1",
             "cells": [[0, 0, 6], [2, 2, "R0C0 + R0C0"]]}
        )
        session.close()

        revived = Session.open("t1", config)
        try:
            assert revived.resurrected
            read = revived.apply(
                {"op": "read", "session": "t1", "row": 2, "col": 2}
            )
            assert read["value"] == 12
            log = revived.apply({"op": "log", "session": "t1"})
            assert log["edits"] == [[0, 0, 6], [2, 2, "R0C0 + R0C0"]]
        finally:
            revived.close()

    def test_refused_batch_stays_refused_after_eviction(self, tmp_path):
        config = make_config(tmp_path)
        session = Session.open("t1", config)
        session.apply({"op": "write", "session": "t1", "cells": [[0, 0, "5"]]})
        with pytest.raises(SessionOpError, match="rolled back"):
            session.apply(
                {"op": "batch", "session": "t1",
                 "cells": [[0, 0, "99"], [0, 1, "R0C0 +"]]}
            )
        session.close(reason="eviction")

        revived = Session.open("t1", config)
        try:
            read = revived.apply(
                {"op": "read", "session": "t1", "row": 0, "col": 0}
            )
            assert read["value"] == 5
            log = revived.apply({"op": "log", "session": "t1"})["edits"]
            assert log == [[0, 0, "5"]]
            dump = revived.apply({"op": "dump", "session": "t1"})
            assert _replay_serially(log, 4, 4) == dump["values"]
        finally:
            revived.close()

    def test_wal_tail_survives_uncheckpointed_close(self, tmp_path):
        config = make_config(tmp_path)
        session = Session.open("t1", config)
        session.apply(
            {"op": "write", "session": "t1", "cells": [[0, 0, 41]]}
        )
        # Simulate a crash-ish teardown: no final checkpoint, so the
        # edit exists only in the WAL (it was logged at apply time).
        session.close(checkpoint=False)

        revived = Session.open("t1", config)
        try:
            read = revived.apply(
                {"op": "read", "session": "t1", "row": 0, "col": 0}
            )
            assert read["value"] == 41
        finally:
            revived.close()

    def test_two_sessions_from_one_checkpoint_are_independent(self, tmp_path):
        config = make_config(tmp_path)
        session = Session.open("shared", config)
        session.apply(
            {"op": "write", "session": "shared", "cells": [[0, 0, 10]]}
        )
        session.close()

        a = Session.open("shared", config)
        path = Session.state_path(config.root, "shared")
        from repro.spreadsheet import Spreadsheet

        b_sheet, _report = Spreadsheet.load(path)
        try:
            a.apply(
                {"op": "write", "session": "shared", "cells": [[0, 0, 99]]}
            )
            with b_sheet.runtime.active():
                assert b_sheet.value(0, 0) == 10  # b never saw a's write
            assert a.apply(
                {"op": "read", "session": "shared", "row": 0, "col": 0}
            )["value"] == 99
        finally:
            a.close()
            b_sheet.runtime.close()

    def test_a_resurrected_tenant_counts_its_recovery(self, tmp_path):
        """Engine counters read each runtime's ``rt.stats`` from its
        construction, so the recovery that builds a resurrected tenant
        counts although metrics attach after it."""
        config = make_config(tmp_path)
        registry = MetricsRegistry()
        session = Session.open("t1", config, registry)
        session.apply(
            {"op": "write", "session": "t1",
             "cells": [[0, 0, 5], [1, 0, "R0C0 + 2"]]}
        )
        session.close(reason="eviction")
        revived = Session.open("t1", config, registry)
        try:
            read = revived.apply(
                {"op": "read", "session": "t1", "row": 1, "col": 0}
            )
            assert read["value"] == 7
            counted = {
                name: registry.get(f"alphonse_{name}_total").value
                for name in ("recoveries", "checkpoints", "cache_misses")
            }
            # open and eviction checkpointed; the clean reopen did not
            assert counted == {"recoveries": 1, "checkpoints": 2, "cache_misses": 8}
        finally:
            revived.close()


# ----------------------------------------------------------------------
# when open and close cut a checkpoint
# ----------------------------------------------------------------------


def _layered(rows, cols):
    """Constants in row 0; every later cell sums two cells above it."""
    cells = [[0, c, c + 1] for c in range(cols)]
    for r in range(1, rows):
        for c in range(cols):
            cells.append([r, c, f"R{r - 1}C{c} + R{r - 1}C{(c + 1) % cols}"])
    return cells


def _read_row(session, row, cols=4):
    return [
        session.apply({"op": "read", "session": "t1", "row": row, "col": c})["value"]
        for c in range(cols)
    ]


def _checkpoints(session):
    """CHECKPOINT events in the session's flight ring (open included)."""
    return sum(1 for r in session.flight.records() if r["kind"] == "checkpoint")


def _seeded(config):
    """A 4x4 layered tenant, fully read once, then evicted."""
    session = Session.open("t1", config)
    session.apply({"op": "batch", "session": "t1", "cells": _layered(4, 4)})
    for row in range(4):
        _read_row(session, row)
    session.close(reason="eviction")
    return Session.state_path(config.root, "t1")


class TestQuiescentCheckpoints:
    def test_read_only_generations_leave_the_checkpoint_alone(self, tmp_path):
        config = make_config(tmp_path)
        path = _seeded(config)
        with open(path, "rb") as fh:
            on_disk = fh.read()
        mtime = os.stat(path).st_mtime_ns
        expected = _replay_serially(_layered(4, 4), 4, 4)[3]
        for _generation in range(6):
            revived = Session.open("t1", config)
            assert revived.runtime.last_recovery.mode == "clean"
            assert _checkpoints(revived) == 0
            assert _read_row(revived, 3) == expected
            assert revived.runtime.stats.executions == 0
            revived.close(reason="eviction")
            assert _checkpoints(revived) == 0
            with open(path, "rb") as fh:
                assert fh.read() == on_disk
            assert os.stat(path).st_mtime_ns == mtime
            assert os.path.getsize(path + ".wal") == 0

    def test_a_read_that_executes_checkpoints_at_eviction(self, tmp_path):
        config = make_config(tmp_path)
        session = Session.open("t1", config)
        session.apply(
            {"op": "batch", "session": "t1", "cells": [[0, 0, 2], [1, 0, "R0C0 + 1"]]}
        )
        session.close(reason="eviction")  # R1C0 was never computed

        revived = Session.open("t1", config)
        assert _checkpoints(revived) == 0
        read = revived.apply({"op": "read", "session": "t1", "row": 1, "col": 0})
        assert read["value"] == 3
        assert revived.runtime.stats.executions > 0
        revived.close(reason="eviction")
        assert _checkpoints(revived) == 1
        path = Session.state_path(config.root, "t1")
        assert os.path.getsize(path + ".wal") == 0

        # The computed cone is now on disk: the next read runs nothing.
        again = Session.open("t1", config)
        try:
            read = again.apply({"op": "read", "session": "t1", "row": 1, "col": 0})
            assert read["value"] == 3
            assert again.runtime.stats.executions == 0
        finally:
            again.close()

    def test_a_write_checkpoints_at_eviction(self, tmp_path):
        config = make_config(tmp_path)
        path = _seeded(config)
        revived = Session.open("t1", config)
        assert _checkpoints(revived) == 0
        revived.apply({"op": "write", "session": "t1", "cells": [[0, 0, 10]]})
        assert os.path.getsize(path + ".wal") > 0
        revived.close(reason="eviction")
        assert _checkpoints(revived) == 1
        assert os.path.getsize(path + ".wal") == 0

        again = Session.open("t1", config)
        try:
            assert again.runtime.last_recovery.mode == "clean"
            log = again.apply({"op": "log", "session": "t1"})["edits"]
            assert log == _layered(4, 4) + [[0, 0, 10]]
            assert _read_row(again, 3) == _replay_serially(log, 4, 4)[3]
        finally:
            again.close()

    def test_a_write_the_wal_does_not_log_checkpoints_at_eviction(self, tmp_path):
        config = make_config(tmp_path)
        session = Session.open("t1", config)
        session.apply({"op": "write", "session": "t1", "cells": [[0, 0, 5]]})
        session.apply({"op": "snapshot", "session": "t1"})
        with session.runtime.active():
            # No formula-grammar rendering, so no redo record; and no
            # read gave the cell's formula a node, so no graph record.
            session.sheet.set_formula(0, 0, _Exploding())
        session.close(reason="eviction")
        assert _checkpoints(session) == 3  # open, snapshot, eviction

        revived = Session.open("t1", config)
        try:
            # A formula the redo state cannot hold reloads as an empty cell.
            dump = revived.apply({"op": "dump", "session": "t1"})
            assert dump["values"][0][0] == 0
        finally:
            revived.close()

    @pytest.mark.parametrize("damage", ["torn-tail", "replayed-tail", "degraded"])
    def test_a_recovery_that_read_the_wal_checkpoints_at_open(self, tmp_path, damage):
        config = make_config(tmp_path)
        path = _seeded(config)
        session = Session.open("t1", config)
        session.apply({"op": "write", "session": "t1", "cells": [[0, 1, 7]]})
        session.apply({"op": "write", "session": "t1", "cells": [[0, 2, 8]]})
        edits = session.edit_log[:]
        session.close(checkpoint=False)
        wal = path + ".wal"
        if damage == "torn-tail":
            # The two writes were checkpointed; only a torn append remains.
            session = Session.open("t1", config)
            session.close()
            with open(wal, "ab") as fh:
                fh.write(b'0badc0de {"t":"a","d":{"op":"set_f')
        elif damage == "degraded":
            with open(wal, "rb") as fh:
                lines = fh.read().split(b"\n")
            lines[0] = lines[0][:-4] + b"XXXX"  # garbled, with records after it
            with open(wal, "wb") as fh:
                fh.write(b"\n".join(lines))

        revived = Session.open("t1", config)
        try:
            report = revived.runtime.last_recovery
            if damage == "torn-tail":
                assert report.mode == "clean" and report.dropped_tail
            elif damage == "replayed-tail":
                assert report.mode == "replayed" and report.app_records
            else:
                assert report.mode == "degraded"
            assert _checkpoints(revived) == 1
            assert os.path.getsize(wal) == 0
            log = revived.apply({"op": "log", "session": "t1"})["edits"]
            if damage == "degraded":
                # Records from the damaged one on are untrusted.
                assert log == edits[: len(log)] and len(log) < len(edits)
            else:
                assert log == edits
            dump = revived.apply({"op": "dump", "session": "t1"})
            assert dump["values"] == _replay_serially(log, 4, 4)
        finally:
            revived.close()

    def test_wal_tail_after_a_skipped_open_checkpoint_recovers(self, tmp_path):
        config = make_config(tmp_path)
        path = _seeded(config)
        revived = Session.open("t1", config)
        assert _checkpoints(revived) == 0
        revived.apply({"op": "write", "session": "t1", "cells": [[0, 3, 40]]})
        revived.apply(
            {"op": "batch", "session": "t1",
             "cells": [[2, 1, "R0C3 + R1C0"], [1, 1, 5]]}
        )
        _read_row(revived, 3)
        revived.apply({"op": "write", "session": "t1", "cells": [[3, 0, "R2C1 + 1"]]})
        revived.close(checkpoint=False)
        assert os.path.getsize(path + ".wal") > 0

        again = Session.open("t1", config)
        try:
            assert again.runtime.last_recovery.mode == "replayed"
            log = again.apply({"op": "log", "session": "t1"})["edits"]
            assert log == _layered(4, 4) + [
                [0, 3, 40], [2, 1, "R0C3 + R1C0"], [1, 1, 5], [3, 0, "R2C1 + 1"],
            ]
            dump = again.apply({"op": "dump", "session": "t1"})
            assert dump["values"] == _replay_serially(log, 4, 4)
            assert again.apply({"op": "audit", "session": "t1"})["sound"]
        finally:
            again.close()
