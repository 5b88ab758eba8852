"""Edit-history durability: one log under crashes and damage.

A session's edit history (the ``log`` op) is the sheet's own ``edits``
list: the checkpoint carries it and the WAL ``set_formula`` records that
recover the sheet extend it.  Each scenario crashes or damages that one
log, reopens the session, and checks that the recovered history replays
to the recovered grid — the convergence contract the load harness and
the failover drill rely on.
"""

from pathlib import Path

import pytest

from repro.persist.wal import WriteAheadLog
from repro.serve import ServeConfig
from repro.serve.loadgen import _replay_serially
from repro.serve.session import Session
from repro.testing import CrashPoint, SimulatedCrash


def make_config(tmp_path, **kw):
    kw.setdefault("root", str(tmp_path / "state"))
    kw.setdefault("rows", 4)
    kw.setdefault("cols", 4)
    kw.setdefault("watchdog_max_steps", None)
    return ServeConfig(**kw)


def _log_and_dump(session):
    log = session.apply({"op": "log"})["edits"]
    dump = session.apply({"op": "dump"})
    return log, dump["values"]


def _wal_edits(session):
    """The edits carried by the ``set_formula`` records in the WAL."""
    records = WriteAheadLog.scan(session.path + ".wal").records
    return [
        [r["d"]["row"], r["d"]["col"], r["d"]["source"]]
        for r in records
        if r.get("t") == "a" and r["d"].get("op") == "set_formula"
    ]


class TestCrashDurability:
    def test_unacked_edit_is_absent_acked_edits_survive(self, tmp_path):
        config = make_config(tmp_path)
        session = Session.open("a", config)
        session.apply({"op": "write", "cells": [[0, 0, "5"]]})  # acked

        # Power loss at the next WAL append: the doomed cell's record is
        # torn, and the same record is the history's only copy of it.
        crash = CrashPoint("wal-append", nth=1)
        with crash.applied(session.runtime):
            with pytest.raises(SimulatedCrash):
                session.apply({"op": "write", "cells": [[0, 1, "7"]]})
        assert crash.fired
        assert _wal_edits(session) == [[0, 0, "5"]]

        # The resurrected session agrees with the durable history.
        revived = Session.open("a", config)
        assert revived.edit_log == [[0, 0, "5"]]
        assert revived.apply({"op": "read", "row": 0, "col": 0})["value"] == 5
        assert revived.apply({"op": "audit"})["sound"] is True
        revived.close()
        session.runtime.close()

    def test_crash_inside_a_write_keeps_history_and_grid_together(
        self, tmp_path
    ):
        config = make_config(tmp_path)
        session = Session.open("a", config)
        session.apply({"op": "write", "cells": [[0, 0, "5"]]})

        # The second WAL append of a two-cell write tears: the first
        # cell is durable (and so in the history), the second is not.
        crash = CrashPoint("wal-append", nth=2)
        with crash.applied(session.runtime):
            with pytest.raises(SimulatedCrash):
                session.apply(
                    {"op": "write", "cells": [[0, 1, "7"], [0, 2, "9"]]}
                )
        assert crash.fired

        # Reopen over the crashed session's files without closing it.
        revived = Session.open("a", config)
        log, values = _log_and_dump(revived)
        assert values[0] == [5, 7, 0, 0]
        assert log == [[0, 0, "5"], [0, 1, "7"]]
        assert _replay_serially(log, 4, 4) == values
        revived.close()
        session.runtime.close()

    def test_mid_file_wal_damage_degrades_history_with_grid(self, tmp_path):
        config = make_config(tmp_path)
        session = Session.open("a", config)
        for col in range(4):
            session.apply({"op": "write", "cells": [[0, col, str(col + 1)]]})
        wal = Path(session.path + ".wal")
        lines = wal.read_text(encoding="utf-8").splitlines(True)
        assert len(lines) == 4
        # Damage the second record; complete records follow it, so this
        # is corruption, not a torn tail, and recovery degrades.
        lines[1] = "garbage" + lines[1][7:]
        wal.write_text("".join(lines), encoding="utf-8")

        revived = Session.open("a", config)
        assert revived.runtime.last_recovery.mode == "degraded"
        log, values = _log_and_dump(revived)
        assert log == [[0, 0, "1"]]
        assert values[0] == [1, 0, 0, 0]
        assert _replay_serially(log, 4, 4) == values
        assert revived.apply({"op": "audit"})["sound"] is True
        revived.close()
        session.runtime.close()
