"""§6.2 static graph construction: statically declared dependency
subgraphs are built once and reused across re-executions."""

from repro import Cell, cached, maintained
from repro.core import TrackedObject


class TestStaticDeps:
    def test_correct_values_under_change(self, rt):
        a, b = Cell(1, label="a"), Cell(2, label="b")

        @cached(static_deps=True)
        def total():
            return a.get() + b.get()

        assert total() == 3
        a.set(10)
        assert total() == 12
        b.set(20)
        assert total() == 30

    def test_edges_not_rebuilt_on_reexecution(self, rt):
        a, b = Cell(1, label="a"), Cell(2, label="b")

        @cached(static_deps=True)
        def total():
            return a.get() + b.get()

        total()
        created_first = rt.stats.edges_created
        a.set(5)
        total()  # re-executes, but the subgraph is frozen
        assert rt.stats.edges_created == created_first
        assert rt.stats.edges_removed == 0

    def test_dynamic_variant_relinks_edges(self, rt):
        """Without the assertion, a re-execution re-links the edges it
        reads again (§6.2 at run time): an unchanged read set creates
        and removes nothing, and only a changed one churns edges."""
        a, b, c = Cell(1, label="a"), Cell(2, label="b"), Cell(3, label="c")
        names = Cell("ab", label="names")
        cells = {"a": a, "b": b, "c": c}

        @cached
        def total():
            return sum(cells[name].get() for name in names.get())

        assert total() == 3
        created, removed = rt.stats.edges_created, rt.stats.edges_removed
        a.set(5)
        assert total() == 7  # same read set
        assert (rt.stats.edges_created, rt.stats.edges_removed) == (created, removed)
        names.set("a")
        assert total() == 5  # drops b
        assert (rt.stats.edges_created, rt.stats.edges_removed) == (created, removed + 1)
        names.set("ac")
        assert total() == 8  # adds c
        assert rt.stats.edges_created == created + 1
        assert rt.stats.edges_removed == removed + 1

    def test_static_maintained_method(self, rt):
        class Pair(TrackedObject):
            _fields_ = ("x", "y")

            @maintained(static_deps=True)
            def total(self):
                return self.x + self.y

        p = Pair(x=1, y=2)
        assert p.total() == 3
        edges_after_first = rt.stats.edges_created
        p.x = 10
        assert p.total() == 12
        assert rt.stats.edges_created == edges_after_first

    def test_static_deps_wrong_declaration_goes_stale(self, rt):
        """If the programmer lies (the read set actually varies), the
        frozen subgraph misses the new dependency — the §6.2 analogue of
        UNCHECKED's risk.  Documented behaviour, not a bug."""
        flag = Cell(True, label="flag")
        a, b = Cell(1, label="a"), Cell(2, label="b")

        @cached(static_deps=True)
        def pick():
            return a.get() if flag.get() else b.get()

        assert pick() == 1
        flag.set(False)
        assert pick() == 2  # flag WAS in the first read set: tracked
        b.set(99)
        # b was not in the FIRST execution's read set; the frozen graph
        # never learned about it, so the change is missed.
        assert pick() == 2

    def test_nested_static_calls(self, rt):
        base = Cell(1, label="base")

        @cached(static_deps=True)
        def inner():
            return base.get() * 2

        @cached(static_deps=True)
        def outer():
            return inner() + 1

        assert outer() == 3
        base.set(5)
        assert outer() == 11
        # second change: still correct through the frozen chain
        base.set(7)
        assert outer() == 15
