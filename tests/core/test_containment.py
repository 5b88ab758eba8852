"""Fault containment: poison capture, propagation, demand surfacing,
and healing — across both evaluation strategies."""

import pytest

from repro import (
    Cell,
    EAGER,
    EventKind,
    NodeExecutionError,
    Poisoned,
    Runtime,
    cached,
)
from repro.core.node import values_equal


STRATEGIES = [None, EAGER]  # None = DEMAND (the decorator default)
# Case ids name the strategy and the propagation order the case drains
# in: topological (Section 4.5), the runtime's only order.
STRATEGY_IDS = ["demand-topological", "eager-topological"]


def _strategy_kw(strategy):
    return {} if strategy is None else {"strategy": strategy}


@pytest.mark.parametrize("strategy", STRATEGIES, ids=STRATEGY_IDS)
class TestPoisonPropagation:
    def test_failure_poisons_and_read_raises(self, strategy):
        rt = Runtime()
        with rt.active():
            source = Cell(1, label="source")

            @cached(**_strategy_kw(strategy))
            def mid():
                value = source.get()
                if value < 0:
                    raise ValueError(f"mid rejects {value}")
                return value * 10

            @cached(**_strategy_kw(strategy))
            def top():
                return mid() + 1

            assert top() == 11
            source.set(-1)
            rt.flush()  # the drain must complete either way
            with pytest.raises(NodeExecutionError) as excinfo:
                top()
            assert isinstance(excinfo.value.root, ValueError)
            assert excinfo.value.origin == "mid()"
            rt.check_invariants()

    def test_healing_write_recovers_results(self, strategy):
        rt = Runtime()
        with rt.active():
            source = Cell(1, label="source")

            @cached(**_strategy_kw(strategy))
            def mid():
                value = source.get()
                if value < 0:
                    raise ValueError("negative")
                return value * 10

            @cached(**_strategy_kw(strategy))
            def top():
                return mid() + 1

            assert top() == 11
            source.set(-1)
            rt.flush()
            with pytest.raises(NodeExecutionError):
                top()
            source.set(7)
            rt.flush()
            assert top() == 71
            assert mid() == 70
            assert rt._poison_live == 0
            rt.check_invariants()

    def test_poison_chains_with_root_origin(self, strategy):
        """The origin reported at any depth is the node whose body raised."""
        rt = Runtime()
        with rt.active():
            source = Cell(1, label="source")

            @cached(**_strategy_kw(strategy))
            def a():
                value = source.get()
                if value < 0:
                    raise KeyError("a broke")
                return value

            @cached(**_strategy_kw(strategy))
            def b():
                return a() + 1

            @cached(**_strategy_kw(strategy))
            def c():
                return b() + 1

            assert c() == 3
            source.set(-1)
            rt.flush()
            with pytest.raises(NodeExecutionError) as excinfo:
                c()
            assert excinfo.value.origin == "a()"
            assert isinstance(excinfo.value.root, KeyError)
            source.set(5)
            rt.flush()
            assert c() == 7
            rt.check_invariants()


class TestEagerContainmentDetail:
    def test_drain_completes_and_skips_poisoned_reader_bodies(self):
        """An eager node whose input is poisoned must not re-run its body
        during the drain (ISSUE: "without re-running their bodies")."""
        rt = Runtime()
        with rt.active():
            source = Cell(1, label="source")
            downstream_runs = []

            @cached(strategy=EAGER)
            def failing():
                value = source.get()
                if value < 0:
                    raise ValueError("no")
                return value

            @cached(strategy=EAGER)
            def reader():
                downstream_runs.append(1)
                return failing() + 1

            assert reader() == 2
            runs_before = len(downstream_runs)
            source.set(-1)
            rt.flush()
            # reader was poisoned by input without executing its body
            assert len(downstream_runs) == runs_before
            node = rt.node_for(reader, ())
            assert type(node.value) is Poisoned
            assert node.value.origin == "failing()"
            rt.check_invariants()

    def test_poisoned_events_and_counters(self):
        rt = Runtime()
        seen = []
        rt.events.subscribe(
            EventKind.NODE_POISONED,
            lambda kind, node, amount, data: seen.append((node.label, data)),
        )
        with rt.active():
            source = Cell(1, label="source")

            @cached(strategy=EAGER)
            def failing():
                value = source.get()
                if value < 0:
                    raise ValueError("no")
                return value

            failing()
            source.set(-1)
            rt.flush()
            assert rt.stats.nodes_poisoned == 1
            assert seen == [
                ("failing()", {"error": "ValueError", "origin": "failing()"})
            ]

    def test_drain_never_quiesces_on_repeated_poison(self):
        """Two successive failures must both propagate: Poisoned never
        equals anything, so quiescence cannot cut a failing region off
        from its healing writes."""
        rt = Runtime()
        with rt.active():
            source = Cell(-1, label="source")

            @cached(strategy=EAGER)
            def failing():
                value = source.get()
                if value < 0:
                    raise ValueError(f"bad {value}")
                return value

            with pytest.raises(NodeExecutionError):
                failing()
            source.set(-2)
            rt.flush()  # re-poison: still a change, not a quiescence cut
            source.set(3)
            rt.flush()
            assert failing() == 3
            rt.check_invariants()


class TestPoisonedSemantics:
    def test_poisoned_equals_nothing(self):
        p = Poisoned(ValueError("x"), "n")
        assert not values_equal(p, p)
        assert not values_equal(p, Poisoned(ValueError("x"), "n"))
        assert not values_equal(p, 3)
        assert not values_equal(3, p)

    def test_repr_names_type_and_origin(self):
        p = Poisoned(ValueError("x"), "mid()")
        assert "ValueError" in repr(p)
        assert "mid()" in repr(p)

    def test_containment_off_restores_raw_exceptions(self):
        rt = Runtime(containment=False)
        with rt.active():
            source = Cell(-1, label="source")

            @cached
            def failing():
                value = source.get()
                if value < 0:
                    raise ValueError("raw")
                return value

            with pytest.raises(ValueError):
                failing()
            assert rt._poison_live == 0
            source.set(1)
            assert failing() == 1

    def test_cache_hit_on_poison_does_not_rerun_body(self):
        rt = Runtime()
        with rt.active():
            source = Cell(-1, label="source")
            runs = []

            @cached
            def failing():
                runs.append(1)
                value = source.get()
                if value < 0:
                    raise ValueError("no")
                return value

            with pytest.raises(NodeExecutionError):
                failing()
            assert len(runs) == 1
            with pytest.raises(NodeExecutionError):
                failing()  # replayed from the poisoned cache
            assert len(runs) == 1
            source.set(2)
            assert failing() == 2
            assert len(runs) == 2

    def test_engine_errors_are_never_contained(self):
        from repro import CycleError

        rt = Runtime(strict_cycles=True)
        with rt.active():

            @cached
            def loop():
                return loop()

            with pytest.raises(CycleError):
                loop()
            assert rt._poison_live == 0

    def test_keyboard_interrupt_is_never_contained(self):
        rt = Runtime()
        with rt.active():
            source = Cell(1, label="source")

            @cached
            def interrupted():
                source.get()
                raise KeyboardInterrupt()

            with pytest.raises(KeyboardInterrupt):
                interrupted()
            assert rt._poison_live == 0
            assert rt.call_stack == []


class _QuotientExp:
    """Built lazily inside tests: 100 divided by another cell's value —
    the classic #ERR!-producing formula (the built-in formula grammar is
    addition-only, so division comes in as a programmatic Exp)."""

    def __new__(cls, sheet, row, col):
        from repro import maintained
        from repro.ag.expr import Exp

        class QuotientExp(Exp):
            _fields_ = ("row", "col")

            def __init__(self, sheet, **kw):
                super().__init__(**kw)
                self.sheet = sheet

            @maintained
            def value(self):
                return 100 // self.sheet.cell_at(self.row, self.col).value()

        return QuotientExp(sheet, row=row, col=col)


class TestSpreadsheetErrCell:
    def test_err_marker_shows_and_heals_via_input_edit(self):
        from repro.spreadsheet import ERROR_MARKER, Spreadsheet

        rt = Runtime()
        with rt.active():
            sheet = Spreadsheet(1, 3)
            sheet.set_formula(0, 0, 0)
            sheet.set_formula(0, 1, _QuotientExp(sheet, 0, 0))  # 100 // R0C0
            sheet.set_formula(0, 2, "= R0C1 + 1")  # depends on the error
            assert sheet.display(0, 0) == 0
            assert sheet.display(0, 1) == ERROR_MARKER
            assert sheet.display(0, 2) == ERROR_MARKER
            # values() would raise; display() degrades cell-by-cell
            with pytest.raises(NodeExecutionError):
                sheet.value(0, 1)
            # fixing the *input* cell (not the formula) heals the chain
            sheet.set_formula(0, 0, 5)
            assert sheet.display(0, 1) == 20
            assert sheet.display(0, 2) == 21
            rt.check_invariants()

    def test_err_marker_heals_on_formula_replacement(self):
        from repro.spreadsheet import ERROR_MARKER, Spreadsheet

        rt = Runtime()
        with rt.active():
            sheet = Spreadsheet(2, 2)
            sheet.set_formula(0, 0, 0)
            sheet.set_formula(0, 1, _QuotientExp(sheet, 0, 0))
            sheet.set_formula(1, 0, "= R0C1 + R0C1")
            assert sheet.display(0, 1) == ERROR_MARKER
            assert sheet.display(1, 0) == ERROR_MARKER
            # replacing the offending formula heals every dependent
            sheet.set_formula(0, 1, 4)
            assert sheet.display(0, 1) == 4
            assert sheet.display(1, 0) == 8
            rt.check_invariants()
