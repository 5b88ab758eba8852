"""Debugging support built on the dependency information."""

from repro import Cell, cached
from repro.core import debug
from repro.obs.explain import KINDS as explain_kinds
from repro.obs.flight import FlightRecorder


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
        # A ring whose own kinds are the explain kinds shows them in its
        # flight view.
        rt.obs.flight = FlightRecorder(kinds=explain_kinds)
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
        from repro.core.events import EventKind

        before = rt.events.subscriber_count(EventKind.EXECUTION)
        self._record(rt)
        assert rt.events.subscriber_count(EventKind.EXECUTION) == before + 1
        rt.obs.disable()
        assert rt.events.subscriber_count(EventKind.EXECUTION) == before

    def test_nested_recording_chains(self, rt):
        from repro.core.events import EventKind

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
