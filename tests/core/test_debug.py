"""Debugging support built on the dependency information."""

from repro import Cell, cached
from repro.core import debug


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

    def test_format_graph_and_dot(self, rt):
        a = Cell(1, label="a")

        @cached
        def f():
            return a.get()

        f()
        text = debug.format_graph(rt)
        assert "a" in text
        dot = debug.to_dot(rt)
        assert dot.startswith("digraph alphonse {")
        assert "->" in dot
        assert dot.rstrip().endswith("}")

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
    def test_records_executions_and_hits(self, rt):
        a = Cell(1, label="a")

        @cached
        def f():
            return a.get()

        with debug.record(rt) as log:
            f()
            f()
        assert len(log.executions()) == 1
        assert len(log.hits()) == 1

    def test_records_changes(self, rt):
        a = Cell(1, label="a")

        @cached
        def f():
            return a.get()

        f()
        with debug.record(rt) as log:
            a.set(9)
        assert log.changes() == ["a"]

    def test_why_recomputed_names_the_cause(self, rt):
        a = Cell(1, label="price")

        @cached
        def total():
            return a.get() * 3

        total()
        with debug.record(rt) as log:
            a.set(2)
            total()
        explanation = log.why_recomputed("total")
        assert explanation is not None
        assert "price" in explanation

    def test_why_recomputed_first_execution(self, rt):
        a = Cell(1, label="a")

        @cached
        def f():
            return a.get()

        with debug.record(rt) as log:
            f()
        explanation = log.why_recomputed("f")
        assert "first execution" in explanation

    def test_why_recomputed_unknown_label(self, rt):
        with debug.record(rt) as log:
            pass
        assert log.why_recomputed("missing") is None

    def test_listener_restored_after_block(self, rt):
        from repro.core.events import EventKind

        before = rt.events.subscriber_count(EventKind.EXECUTION)
        with debug.record(rt):
            assert (
                rt.events.subscriber_count(EventKind.EXECUTION) == before + 1
            )
        assert rt.events.subscriber_count(EventKind.EXECUTION) == before

    def test_nested_recording_chains(self, rt):
        a = Cell(1, label="a")

        @cached
        def f():
            return a.get()

        with debug.record(rt) as outer_log:
            with debug.record(rt) as inner_log:
                f()
        assert len(inner_log.executions()) == 1
        assert len(outer_log.executions()) == 1
