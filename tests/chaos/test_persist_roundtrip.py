"""Durability round-trip properties (the persistence chaos harness).

The core property: run an edit script, checkpoint at an *arbitrary*
prefix, let the rest of the script reach only the WAL, kill the
process, recover — the recovered state must agree exactly with an
uninterrupted run of the whole script, recovery must not be degraded,
and the recovered runtime must pass the invariant audit.  When the
checkpoint covered the whole script, recovery must also be *free*:
zero re-executions.

Alongside it, each :class:`~repro.testing.CrashPoint` site gets a
scripted kill-and-recover scenario: mid-drain, mid-WAL-append (torn
tail on disk), and mid-checkpoint-rename (previous checkpoint must
survive).

Run with ``pytest -m chaos``.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Cell, EAGER, Runtime, cached
from repro.persist.ids import fresh_id_space
from repro.persist.recover import recover
from repro.testing import CrashPoint, SimulatedCrash

pytestmark = pytest.mark.chaos

CHAOS_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

N_CELLS = 4
INITIAL = [1, 2, 3, 4]

#: Unique on-disk state per Hypothesis example (tmp_path is
#: function-scoped and shared across examples).
_SEQ = itertools.count()


def _program():
    """The deterministic reconstruction target: N cells, an aggregate
    over all of them, and a per-cell derived value."""
    cells = [Cell(v, label="rc") for v in INITIAL]

    @cached
    def total():
        return sum(c.get() for c in cells)

    @cached
    def scaled(i):
        return cells[i].get() * (i + 1)

    return cells, total, scaled


def _read_all(total, scaled):
    return [total()] + [scaled(i) for i in range(N_CELLS)]


_edit_scripts = st.lists(
    st.tuples(st.integers(0, N_CELLS - 1), st.integers(-50, 50)),
    min_size=0,
    max_size=12,
)


class TestCheckpointRoundTrip:
    @CHAOS_SETTINGS
    @given(edits=_edit_scripts, data=st.data())
    def test_recovery_matches_an_uninterrupted_run(self, tmp_path, edits, data):
        prefix = data.draw(
            st.integers(0, len(edits)), label="checkpoint after N edits"
        )
        path = str(tmp_path / f"state-{next(_SEQ)}")

        # Uninterrupted reference run of the full script.
        fresh_id_space()
        reference = Runtime()
        with reference.active():
            cells, total, scaled = _program()
            _read_all(total, scaled)
            for i, v in edits:
                cells[i].set(v)
            expected = _read_all(total, scaled)

        # Interrupted run: checkpoint mid-script, crash at the end.
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            cells, total, scaled = _program()
            _read_all(total, scaled)
            manager = rt.persist_to(path)
            for i, v in edits[:prefix]:
                cells[i].set(v)
            rt.flush()
            _read_all(total, scaled)
            manager.checkpoint()
            for i, v in edits[prefix:]:
                cells[i].set(v)  # reaches only the WAL
        manager.wal.close()
        rt._discarded = True  # simulated process death

        fresh_id_space()
        rt2, report = recover(path, restore_values=True)
        assert report.mode != "degraded"
        with rt2.active():
            cells, total, scaled = _program()
            assert _read_all(total, scaled) == expected
        assert rt2.check_invariants(raise_on_violation=False) == []
        if prefix == len(edits):
            # The checkpoint covered everything: recovery is pure
            # adoption, not a single procedure re-executes.
            assert report.mode == "clean"
            assert rt2.stats.executions == 0


def _crash_rig(path):
    """One eager observer over one cell, checkpointed at src == 1."""
    rt = Runtime()
    with rt.active():
        src = Cell(1, label="src")

        @cached(strategy=EAGER)
        def watch():
            return src.get() * 3

        assert watch() == 3
        manager = rt.persist_to(path)
        manager.checkpoint()
    return rt, src, watch, manager


def _recovered_watch(path):
    fresh_id_space()
    rt, report = recover(path, restore_values=True)
    with rt.active():
        src = Cell(1, label="src")

        @cached(strategy=EAGER)
        def watch():
            return src.get() * 3

        value = watch()
    assert rt.check_invariants(raise_on_violation=False) == []
    return value, report


class TestCrashSites:
    def test_drain_crash_recovers_the_committed_write(self, tmp_path):
        path = str(tmp_path / "state")
        fresh_id_space()
        rt, src, watch, manager = _crash_rig(path)
        crash = CrashPoint("drain", match="watch")
        with rt.active(), crash.applied(rt):
            with pytest.raises(SimulatedCrash):
                src.set(2)  # committed + logged, then the drain dies
                rt.flush()
        assert crash.fired and rt._discarded

        value, report = _recovered_watch(path)
        # The write reached the WAL before the drain died: recovery
        # replays it and the eager observer settles on the new input.
        assert report.mode == "replayed"
        assert value == 6

    def test_wal_append_crash_leaves_a_tolerated_torn_tail(self, tmp_path):
        path = str(tmp_path / "state")
        fresh_id_space()
        rt, src, watch, manager = _crash_rig(path)
        crash = CrashPoint("wal-append", nth=2, torn_bytes=9)
        with rt.active(), crash.applied(rt):
            src.set(2)  # first append succeeds
            rt.flush()
            with pytest.raises(SimulatedCrash):
                src.set(5)  # second append dies mid-line
        assert crash.fired and rt._discarded

        value, report = _recovered_watch(path)
        # The torn write was never acknowledged; everything before it
        # recovers normally.
        assert report.mode == "replayed"
        assert report.dropped_tail
        assert report.replayed == 1
        assert value == 6

    def test_checkpoint_rename_crash_preserves_the_previous_state(
        self, tmp_path
    ):
        path = str(tmp_path / "state")
        fresh_id_space()
        rt, src, watch, manager = _crash_rig(path)
        with rt.active():
            src.set(2)
            rt.flush()
            crash = CrashPoint("checkpoint-rename")
            with crash.applied(rt):
                with pytest.raises(SimulatedCrash):
                    manager.checkpoint()
        assert crash.fired and rt._discarded

        value, report = _recovered_watch(path)
        # The temp file never replaced the old checkpoint, and the WAL
        # was not truncated: checkpoint + tail still reach src == 2.
        assert report.mode == "replayed"
        assert value == 6
