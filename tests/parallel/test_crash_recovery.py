"""Process death mid-parallel-drain, then recovery.

The durability contract must hold per partition: a crash while several
partitions drain concurrently loses no acknowledged write, and recovery
re-executes only the partitions the crash-era writes actually touched —
untouched partitions are adopted from the checkpoint byte-for-byte,
zero bodies run."""

import pytest

from repro import Cell, EAGER, Runtime, cached
from repro.persist.ids import fresh_id_space
from repro.persist.recover import recover
from repro.testing import CrashPoint, SimulatedCrash

pytestmark = pytest.mark.parallel

N_PARTS = 6


def _program(counts):
    """N_PARTS disjoint eager components with body-run counters."""
    cells, procs = [], []
    for i in range(N_PARTS):
        cell = Cell(1, label=f"src{i}")

        def proc_body(cell=cell, i=i):
            counts[i] += 1
            return cell.get() * 10

        proc_body.__name__ = f"proc{i}"
        proc = cached(strategy=EAGER)(proc_body)
        cells.append(cell)
        procs.append(proc)
    for proc in procs:
        proc()
    return cells, procs


class TestCrashDuringParallelDrain:
    def test_recovery_reexecutes_only_touched_partitions(self, tmp_path):
        path = str(tmp_path / "state")
        fresh_id_space()
        rt = Runtime(parallel_drains=4)
        counts = [0] * N_PARTS
        with rt.active():
            cells, procs = _program(counts)
            rt.flush()
            manager = rt.persist_to(path)
            manager.checkpoint()
            # Dirty two of the six partitions, then die inside the
            # parallel drain serving them: proc0's re-execution crashes.
            crash = CrashPoint("drain", match="proc0")
            with crash.applied(rt):
                with pytest.raises(SimulatedCrash):
                    cells[0].set(5)
                    cells[1].set(6)
                    rt.flush()
        assert crash.fired and rt._discarded
        manager.wal.close()
        rt.close()

        # Recover in a fresh "process".
        fresh_id_space()
        rt2, report = recover(path, restore_values=True)
        assert report.mode == "replayed"
        counts2 = [0] * N_PARTS
        with rt2.active():
            cells2, procs2 = _program(counts2)
            rt2.flush()
            values = [proc() for proc in procs2]
        # Both acknowledged writes survived the crash.
        assert values[0] == 50
        assert values[1] == 60
        # The four partitions the crash-era writes never touched are
        # adopted from the checkpoint: not one body re-ran.
        assert values[2:] == [10] * (N_PARTS - 2)
        assert counts2[2:] == [0] * (N_PARTS - 2)
        assert rt2.check_invariants(raise_on_violation=False) == []

    def test_untouched_runtime_recovers_with_zero_executions(self, tmp_path):
        """Control: no crash-era writes at all -> pure adoption."""
        path = str(tmp_path / "state")
        fresh_id_space()
        rt = Runtime(parallel_drains=4)
        counts = [0] * N_PARTS
        with rt.active():
            _program(counts)
            rt.flush()
            rt.checkpoint(path)
        rt._discarded = True
        rt.close()

        fresh_id_space()
        rt2 = Runtime.recover(path)
        assert rt2.last_recovery.mode == "clean"
        counts2 = [0] * N_PARTS
        with rt2.active():
            cells2, procs2 = _program(counts2)
            assert [proc() for proc in procs2] == [10] * N_PARTS
        assert rt2.stats.executions == 0
        assert counts2 == [0] * N_PARTS
        assert rt2.check_invariants(raise_on_violation=False) == []
