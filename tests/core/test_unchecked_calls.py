"""UNCHECKED interaction with incremental calls (§6.4 fine points)."""

from repro import Cell, cached, unchecked


class TestUncheckedCalls:
    def test_call_inside_unchecked_creates_no_caller_edge(self, rt):
        cell = Cell(1, label="x")

        @cached
        def inner():
            return cell.get()

        @cached
        def outer():
            with unchecked():
                return inner() + 100

        assert outer() == 101
        # inner's own dependency on the cell exists...
        assert cell._node is not None
        # ...but outer has no edge from inner (suppressed).
        inner_node = rt._tables[inner.proc_id].find(())
        assert list(inner_node.succ) == []

    def test_outer_not_invalidated_through_unchecked_call(self, rt):
        cell = Cell(1, label="x")

        @cached
        def inner():
            return cell.get()

        @cached
        def outer():
            with unchecked():
                return inner() + 100

        assert outer() == 101
        cell.set(50)
        # inner recomputes when asked directly...
        assert inner() == 50
        # ...but outer, having disclaimed the dependency, stays stale.
        assert outer() == 101

    def test_inner_cache_still_works_inside_unchecked(self, rt):
        runs = []

        @cached
        def inner(n):
            runs.append(n)
            return n * 2

        @cached
        def outer():
            with unchecked():
                return inner(5) + inner(5)

        assert outer() == 20
        assert runs == [5]  # inner's own table still deduplicates

    def test_unchecked_region_scoped_to_call_stack(self, rt):
        """A procedure called from inside an unchecked region records its
        OWN dependencies normally — suppression applies to the frames
        that opened the region, not transitively forever."""
        cell = Cell(1, label="x")

        @cached
        def reader():
            return cell.get()  # executes with its own frame: tracked

        @cached
        def outer():
            with unchecked():
                return reader()

        assert outer() == 1
        node = rt._tables[reader.proc_id].find(())
        assert {p.label for p in node.pred} == {"x"}
