"""Algorithm 3/4 semantics: access and modify."""

from repro import Cell, cached


class TestAccess:
    def test_read_outside_procedure_creates_no_node(self, rt):
        cell = Cell(5, label="x")
        assert cell.get() == 5
        assert cell._node is None
        assert rt.stats.accesses == 1
        assert rt.stats.storage_nodes_created == 0

    def test_read_inside_procedure_creates_node_and_edge(self, rt):
        cell = Cell(5, label="x")

        @cached
        def reader():
            return cell.get() + 1

        assert reader() == 6
        assert cell._node is not None
        assert rt.stats.storage_nodes_created == 1
        assert rt.stats.edges_created == 1
        # edge goes storage -> procedure
        succs = list(cell._node.succ)
        assert len(succs) == 1
        assert "reader" in succs[0].label

    def test_repeated_reads_in_one_execution_deduped(self, rt):
        cell = Cell(1, label="x")

        @cached
        def reader():
            return cell.get() + cell.get() + cell.get()

        assert reader() == 3
        assert rt.stats.edges_created == 1  # one edge despite three reads

    def test_distinct_cells_distinct_edges(self, rt):
        a, b = Cell(1, label="a"), Cell(2, label="b")

        @cached
        def adder():
            return a.get() + b.get()

        assert adder() == 3
        assert rt.stats.edges_created == 2

    def test_peek_is_untracked(self, rt):
        cell = Cell(7)

        @cached
        def peeker():
            return cell.peek()

        assert peeker() == 7
        assert cell._node is None
        assert rt.stats.edges_created == 0


class TestModify:
    def test_write_without_node_is_plain(self, rt):
        cell = Cell(0, label="x")
        cell.set(5)
        assert cell.get() == 5
        assert rt.stats.changes_detected == 0  # nothing ever depended on it
        assert not rt.pending_changes()

    def test_write_to_depended_on_cell_marks_inconsistent(self, rt):
        cell = Cell(1, label="x")

        @cached
        def reader():
            return cell.get()

        assert reader() == 1
        cell.set(2)
        assert rt.stats.changes_detected == 1
        assert rt.pending_changes()

    def test_write_of_equal_value_is_quiescent(self, rt):
        cell = Cell(1, label="x")

        @cached
        def reader():
            return cell.get()

        reader()
        cell.set(1)  # same value: no change
        assert rt.stats.changes_detected == 0
        assert not rt.pending_changes()
        # and the cached result is still served without re-execution
        before = rt.stats.executions
        assert reader() == 1
        assert rt.stats.executions == before

    def test_write_counts_as_read(self, rt):
        """§4.3: 'p is dependent upon storage s that is written as well
        as read' — a procedure that only writes a cell still depends on
        it, so an external overwrite re-runs the procedure to set it
        back."""
        cell = Cell(0, label="x")

        @cached
        def writer():
            cell.set(42)
            return "done"

        writer()
        assert cell._node is not None
        deps = list(cell._node.succ)
        assert any("writer" in n.label for n in deps)

    def test_change_then_read_propagates(self, rt):
        cell = Cell(1, label="x")

        @cached
        def double():
            return cell.get() * 2

        assert double() == 2
        cell.set(10)
        assert double() == 20
        assert rt.stats.executions == 2

    def test_several_writes_batched_until_next_call(self, rt):
        cell = Cell(0, label="x")

        @cached
        def reader():
            return cell.get()

        reader()
        cell.set(1)
        cell.set(2)
        cell.set(3)
        executions_before = rt.stats.executions
        assert reader() == 3
        # one re-execution despite three writes (batching, §6.3)
        assert rt.stats.executions == executions_before + 1

    def test_write_back_to_original_value_still_propagates_conservatively(
        self, rt
    ):
        # x changes 1 -> 2 (marked) -> 1 (marked again vs node value 2).
        # Propagation runs, but the procedure re-executes only once and
        # returns the same result.
        cell = Cell(1, label="x")

        @cached
        def reader():
            return cell.get()

        assert reader() == 1
        cell.set(2)
        cell.set(1)
        assert reader() == 1
