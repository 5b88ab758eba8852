"""Debugging support built on the dependency information."""

from repro import Cell, cached
from repro.core import debug
from repro.core.events import EventKind
from repro.obs.flight import FlightRecorder

#: What the removed execution log recorded: executions, hits, changes.
LOG_KINDS = frozenset(
    {EventKind.EXECUTION, EventKind.CACHE_HIT, EventKind.CHANGE_DETECTED}
)


class TestGraphInspection:
    def test_dependencies_of(self, rt):
        a, b = Cell(1, label="a"), Cell(2, label="b")

        @cached
        def f():
            return a.get() + b.get()

        f()
        rt_table = rt._tables[f.proc_id]
        node = rt_table.find(())
        deps = debug.dependencies_of(node)
        assert {d.label for d in deps} == {"a", "b"}

    def test_dependents_of(self, rt):
        a = Cell(1, label="a")

        @cached
        def f():
            return a.get()

        f()
        dependents = debug.dependents_of(a._node)
        assert len(dependents) == 1
        assert "f" in dependents[0].label

    def test_transitive_dependencies(self, rt):
        a = Cell(1, label="a")

        @cached
        def inner():
            return a.get()

        @cached
        def outer():
            return inner() + 1

        outer()
        node = rt._tables[outer.proc_id].find(())
        labels = {d.label for d in debug.transitive_dependencies(node)}
        assert "a" in labels
        assert any("inner" in label for label in labels)

    def test_affected_by(self, rt):
        a = Cell(1, label="a")

        @cached
        def inner():
            return a.get()

        @cached
        def outer():
            return inner() + 1

        outer()
        affected = {n.label for n in debug.affected_by(a._node)}
        assert any("inner" in label for label in affected)
        assert any("outer" in label for label in affected)

    def test_consistency_report(self, rt):
        a = Cell(1, label="a")

        @cached
        def f():
            return a.get()

        f()
        report = debug.consistency_report(rt)
        assert "nodes=" in report
        assert "pending=False" in report
        a.set(2)
        assert "pending=True" in debug.consistency_report(rt)


class TestExecutionLog:
    """What the removed execution log answered, read from the ring
    (``rt.obs.flight``) and ``rt.explain``."""

    @staticmethod
    def _labels(rt, kind):
        return [
            r["label"] for r in rt.obs.flight.records() if r["kind"] == kind
        ]

    @staticmethod
    def _record(rt):
        # A ring whose own kinds are the log's kinds shows them in its
        # flight view.
        rt.obs.flight = FlightRecorder(kinds=LOG_KINDS)
        return rt.obs.enable(spans=False, metrics=False, flight=True)

    def test_records_executions_and_hits(self, rt):
        a = Cell(1, label="a")

        @cached
        def f():
            return a.get()

        self._record(rt)
        f()
        f()
        assert len(self._labels(rt, "execution")) == 1
        assert len(self._labels(rt, "cache-hit")) == 1

    def test_records_changes(self, rt):
        a = Cell(1, label="a")

        @cached
        def f():
            return a.get()

        f()
        self._record(rt)
        a.set(9)
        assert self._labels(rt, "change-detected") == ["a"]

    def test_why_recomputed_names_the_cause(self, rt):
        a = Cell(1, label="price")

        @cached
        def total():
            return a.get() * 3

        total()
        self._record(rt)
        a.set(2)
        total()
        explanation = rt.explain("total")
        assert explanation.verdict == "recomputed"
        assert "price" in explanation.render()

    def test_why_recomputed_first_execution(self, rt):
        a = Cell(1, label="a")

        @cached
        def f():
            return a.get()

        self._record(rt)
        f()
        assert rt.explain("f").verdict == "first-execution"

    def test_why_recomputed_unknown_label(self, rt):
        self._record(rt)
        assert rt.explain("missing").verdict == "never-demanded"

    def test_listener_restored_after_block(self, rt):
        before = rt.events.subscriber_count(EventKind.EXECUTION)
        self._record(rt)
        assert rt.events.subscriber_count(EventKind.EXECUTION) == before + 1
        rt.obs.disable()
        assert rt.events.subscriber_count(EventKind.EXECUTION) == before

    def test_nested_recording_chains(self, rt):
        a = Cell(1, label="a")

        @cached
        def f():
            return a.get()

        kinds = frozenset({EventKind.EXECUTION})
        outer = FlightRecorder(kinds=kinds).attach(rt.events)
        inner = FlightRecorder(kinds=kinds).attach(rt.events)
        f()
        inner.detach()
        outer.detach()
        assert len(inner.records()) == 1
        assert len(outer.records()) == 1


def _repr_cut(value, limit=24):
    """A label argument as its whole ``repr`` renders it (the default
    ``TrackedObject`` one written out in full: its durable name if it
    has one, else its address and fields), cut to ``limit``."""
    from repro.core.cells import TrackedObject, _shallow

    if type(value).__repr__ is TrackedObject.__repr__:
        key = getattr(value, "_persist_key", None)
        if key is not None:
            text = f"{type(value).__name__}({key})"
        else:
            parts = ", ".join(
                f"{name}={_shallow(cell.peek())}"
                for name, cell in value._cells.items()
            )
            text = f"{type(value).__name__}@{id(value):x}({parts})"
        assert repr(value) == text
    else:
        text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


class TestProcedureLabels:
    """Labels render an argument's repr cut to 24 characters, and explain
    chains, flight dumps and checkpoints carry them, so rendering only
    the prefix the cut keeps must give the same bytes."""

    @staticmethod
    def _assert_labels_match(values):
        from repro.core.node import procedure_instance_label

        for value in values:
            label = procedure_instance_label("value", (value,))
            assert label == f"value({_repr_cut(value)})", value
            pair = procedure_instance_label("p", (value, 7))
            assert pair == f"p({_repr_cut(value)}, 7)"

    def test_every_spreadsheet_production(self, rt):
        from repro.ag import expr
        from repro.spreadsheet.model import CellExp, RangeSumExp, Spreadsheet

        sheet = Spreadsheet(3, 3)
        sheet.set_formula(0, 0, "R1C1 + 1")
        sheet.set_formula(0, 1, "SUM(R1C0:R2C2) + R0C0")
        sheet.set_formula(
            0, 2,
            expr.root(expr.let("x" * 40, expr.num(10 ** 30),
                               expr.plus(expr.ident("x" * 40), sheet.ref(2, 2)))),
        )
        assert sheet.cell_at(0, 2).value() == 10 ** 30
        seen = []

        def walk(node):
            seen.append(node)
            for name in type(node).all_fields():
                child = node.field_cell(name).peek()
                if isinstance(child, expr.Exp) and name != "parent":
                    walk(child)

        for col in range(3):
            walk(sheet.cell_at(0, col).func)
        productions = {
            expr.RootExp, expr.PlusExp, expr.LetExp, expr.IdExp,
            expr.IntExp, CellExp, RangeSumExp,
        }
        assert {type(node) for node in seen} == productions
        self._assert_labels_match(seen)
        self._assert_labels_match([sheet.cell_at(0, 0)])  # its own __repr__

    def test_avl_node_and_tracked_fields_classes(self, rt):
        from repro.core.cells import TrackedObject, tracked_fields
        from repro.trees.avl import AvlTree

        tree = AvlTree()
        for key in (3, 1, 2):
            tree.insert(key)
        tree.rebalance()
        short = type("A", (TrackedObject,), {"_fields_": ("x",)})(x=1)
        assert len(repr(short)) <= 24  # rendered whole, not cut
        self._assert_labels_match(
            [tree.root, tree.leaf, tracked_fields()(), short]
        )

    def test_lang_interpreter_object(self):
        from repro.lang.interp import Interpreter

        interp = Interpreter(
            "MODULE N;\nTYPE O = OBJECT v : INTEGER; END;\nEND N."
        )
        interp.run()
        self._assert_labels_match([interp.new_object("O", v=4)])
