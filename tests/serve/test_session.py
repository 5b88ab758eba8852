"""Session lifecycle: open, apply, evict-close, resurrect."""

import pytest

from repro.ag.expr import Exp
from repro.core import maintained
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
