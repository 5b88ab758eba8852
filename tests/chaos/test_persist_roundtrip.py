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
survive).  The spreadsheet gets the same property over a seeded edit
script, and a crash at every WAL append of a same-shape formula edit.

Run with ``pytest -m chaos``.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Cell, EAGER, Runtime, cached
from repro.core.events import EventKind
from repro.obs.flight import FlightRecorder
from repro.persist.ids import fresh_id_space
from repro.persist.recover import recover
from repro.serve.loadgen import _replay_serially
from repro.spreadsheet import FormulaError, Spreadsheet, parse_formula
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


# ----------------------------------------------------------------------
# The spreadsheet: same-shape edits write leaves whose WAL records carry
# their values, so the app record that explains them must come first.
# ----------------------------------------------------------------------


def _sheet_display(sheet):
    return [[sheet.display(r, c) for c in range(sheet.cols)] for r in range(sheet.rows)]


def _sheet_crash_rig(path):
    """A 2x2 sheet with every edit logged, read and checkpointed."""
    fresh_id_space()
    rt = Runtime()
    with rt.active():
        sheet = Spreadsheet(2, 2)
        sheet.save(path)
        sheet.set_formula(0, 0, 5)
        sheet.set_formula(1, 0, "R0C0 + 1")
        sheet.set_formula(1, 1, "let x = R0C0 in x + 1 ni")
        sheet.values()
        sheet.save(path)
    return rt, sheet


#: Each edit, and the sheet once it has finished.
_SAME_SHAPE_EDITS = {
    # One leaf: an app record, then the leaf's write record.
    "constant": (lambda sheet: sheet.set_formula(0, 0, 9), [[9, 0], [10, 10]]),
    # Three leaves: the binder, its use and the constant.
    "let-rename": (
        lambda sheet: sheet.set_formula(1, 1, "let y = R0C0 in y + 7 ni"),
        [[5, 0], [6, 12]],
    ),
    # Two app records, then the batch record of their leaf writes.
    "batch": (
        lambda sheet: sheet.bulk_update([(0, 0, 9), (1, 1, "let y = R0C0 in y + 7 ni")]),
        [[9, 0], [10, 16]],
    ),
}


class TestSameShapeCrashWindows:
    @pytest.mark.parametrize("edit", sorted(_SAME_SHAPE_EDITS))
    def test_a_crash_at_every_append_recovers_a_replayable_sheet(self, tmp_path, edit):
        apply, finished = _SAME_SHAPE_EDITS[edit]
        for nth in itertools.count(1):
            assert nth < 10, "the edit never finished"
            path = str(tmp_path / f"sheet-{nth}")
            rt, sheet = _sheet_crash_rig(path)
            crash = CrashPoint("wal-append", nth=nth, torn_bytes=9)
            with rt.active(), crash.applied(rt):
                try:
                    apply(sheet)
                except SimulatedCrash:
                    pass
            rt._discarded = True  # simulated process death

            fresh_id_space()
            loaded, report = Spreadsheet.load(path)
            assert report.mode != "degraded"
            with loaded.runtime.active():
                recovered = _sheet_display(loaded)
            # What the sheet says it holds is what it computes.
            assert recovered == _replay_serially(loaded.edits, 2, 2)
            assert loaded.runtime.check_invariants(raise_on_violation=False) == []
            if not crash.fired:
                assert recovered == finished
                break


#: Formula templates of the round-trip script.  References reach only
#: rows above the cell, so the sheet never cycles.
_TEMPLATES = ("int", "ref", "sum", "let")


@st.composite
def _sheet_edits(draw):
    row, col = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    k = draw(st.integers(0, 30))
    if row == 0:
        return (row, col, k)
    template = draw(st.sampled_from(_TEMPLATES))
    a = draw(st.integers(0, row - 1))
    b, c = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    name = draw(st.sampled_from("xyz"))
    formula = {
        "int": str(k),
        "ref": f"R{a}C{b} + {k}",
        "sum": f"SUM(R0C{b}:R{a}C{c}) + {k}",
        "let": f"let {name} = R{a}C{b} in {name} + {k} ni",
    }[template]
    return (row, col, formula)


_sheet_scripts = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _sheet_edits()),
        # A batch whose flag is set ends with a formula that fails to
        # parse, and rolls back.
        st.tuples(
            st.just("batch"),
            st.lists(_sheet_edits(), min_size=1, max_size=3),
            st.booleans(),
        ),
        st.just(("read",)),
    ),
    min_size=0,
    max_size=12,
)

#: Set-up: every template once, so edits that keep a cell's template
#: keep its tree's shape.
_SHEET_SETUP = [
    (0, 0, 3), (0, 1, 5), (0, 2, 7),
    (1, 0, "R0C0 + 1"), (1, 1, "SUM(R0C0:R0C2) + 2"), (1, 2, "let x = R0C1 in x + 3 ni"),
    (2, 0, "let y = R1C2 in y + 4 ni"), (2, 1, "R1C0 + 5"), (2, 2, "SUM(R0C0:R1C1) + 6"),
]


def _cells_read(shape):
    tag = shape[0]
    if tag == "cell":
        yield shape[1:]
    elif tag == "sum":
        _, r1, c1, r2, c2 = shape
        for row in range(min(r1, r2), max(r1, r2) + 1):
            for col in range(min(c1, c2), max(c1, c2) + 1):
                yield (row, col)
    elif tag in ("plus", "let"):
        for child in shape[1:]:
            if isinstance(child, tuple):
                yield from _cells_read(child)


def _let_cone(sources):
    """The names of the cells that bind a ``let`` or read, through any
    chain of references, a cell that does."""
    reads = {
        cell: set(_cells_read(parse_formula(source, build=False)))
        for cell, (source, _gen) in sources.items()
        if isinstance(source, str)
    }
    cone = {cell for cell, (source, _gen) in sources.items() if "let" in str(source)}
    grown = True
    while grown:
        grown = False
        for cell, read in reads.items():
            if cell not in cone and read & cone:
                cone.add(cell)
                grown = True
    return {f"R{row}C{col}" for row, col in cone}


def _run_sheet_script(sheet, steps):
    for step in steps:
        if step[0] == "write":
            sheet.set_formula(*step[1])
        elif step[0] == "batch":
            _, updates, fails = step
            try:
                sheet.bulk_update(
                    updates + [(0, 0, "R0C0 +")] * fails, rollback_on_error=True
                )
            except FormulaError:
                assert fails
        else:
            sheet.values()


class TestSpreadsheetRoundTrip:
    @CHAOS_SETTINGS
    @given(steps=_sheet_scripts, data=st.data())
    def test_recovery_matches_an_uninterrupted_run(self, tmp_path, steps, data):
        prefix = data.draw(
            st.integers(0, len(steps)), label="checkpoint after N steps"
        )
        path = str(tmp_path / f"sheet-{next(_SEQ)}")

        # Uninterrupted reference run of the full script.
        fresh_id_space()
        reference = Runtime()
        with reference.active():
            sheet = Spreadsheet(3, 3)
            sheet.bulk_update(_SHEET_SETUP)
            sheet.values()
            _run_sheet_script(sheet, steps)
            expected = sheet.values()

        # Interrupted run: every edit logged, a checkpoint mid-script,
        # the rest only in the WAL, then death.
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            sheet = Spreadsheet(3, 3)
            sheet.save(path)
            sheet.bulk_update(_SHEET_SETUP)
            sheet.values()
            _run_sheet_script(sheet, steps[:prefix])
            sheet.values()
            sheet.save(path)
            _run_sheet_script(sheet, steps[prefix:])
        rt._persist.wal.close()
        rt._discarded = True

        fresh_id_space()
        loaded, report = Spreadsheet.load(path)
        assert report.mode != "degraded"
        ring = loaded.runtime.obs.flight = FlightRecorder(kinds={EventKind.EXECUTION})
        loaded.runtime.obs.enable(spans=False, metrics=False, flight=True)
        with loaded.runtime.active():
            assert loaded.values() == expected
        assert expected == _replay_serially(loaded.edits, 3, 3)
        assert loaded.runtime.check_invariants(raise_on_violation=False) == []
        if prefix == len(steps):
            # The checkpoint covered everything after a full read: the
            # next full read adopts every node and runs no body, except
            # in a cell that binds a `let` or reads one.  A `let`'s
            # environments are left out of checkpoints, so they and
            # what reads them are computed again.  (Formula nodes are
            # labelled by their place in a cell's tree.)
            assert report.mode == "clean"
            cone = _let_cone(loaded._sources)
            for record in ring.records():
                assert any(cell in record["label"] for cell in cone), record
