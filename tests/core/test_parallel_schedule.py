"""§10's parallel-execution scheduling from dependency information."""

from repro import Cell, cached
from repro.core.debug import max_parallelism, parallel_schedule
from repro.trees import build_balanced, nil


class TestParallelSchedule:
    def test_empty_runtime(self, rt):
        assert parallel_schedule(rt) == []
        assert max_parallelism(rt) == 0

    def test_independent_functions_share_a_level(self, rt):
        cells = [Cell(i, label=f"c{i}") for i in range(4)]
        funcs = []
        for i in range(4):

            def make(i=i):
                @cached
                def f():
                    return cells[i].get()

                return f

            funcs.append(make())
        for f in funcs:
            f()
        schedule = parallel_schedule(rt)
        assert len(schedule) == 1
        assert len(schedule[0]) == 4
        assert max_parallelism(rt) == 4

    def test_chain_serializes(self, rt):
        cell = Cell(1, label="x")

        @cached
        def a():
            return cell.get()

        @cached
        def b():
            return a() + 1

        @cached
        def c():
            return b() + 1

        c()
        schedule = parallel_schedule(rt)
        assert [len(level) for level in schedule] == [1, 1, 1]
        order = [level[0].label for level in schedule]
        assert "a" in order[0] and "b" in order[1] and "c" in order[2]

    def test_tree_levels_widen_downward(self, rt):
        root = build_balanced(15, nil())
        root.height()
        schedule = parallel_schedule(rt)
        # the leaf sentinel is level 0; the 8 bottom nodes next; widths
        # shrink toward the root
        widths = [len(level) for level in schedule]
        assert widths[0] >= 1
        assert max(widths) == 8
        assert widths[-1] == 1  # the root alone on top

    def test_every_dependency_respected(self, rt):
        root = build_balanced(31, nil())
        root.height()
        schedule = parallel_schedule(rt)
        level_of = {}
        for depth, level in enumerate(schedule):
            for node in level:
                level_of[id(node)] = depth
        for level in schedule:
            for node in level:
                for pred in node.pred:
                    if pred.is_procedure and id(pred) in level_of:
                        assert level_of[id(pred)] < level_of[id(node)]

    def test_total_nodes_preserved(self, rt):
        root = build_balanced(7, nil())
        root.height()
        schedule = parallel_schedule(rt)
        scheduled = sum(len(level) for level in schedule)
        procedure_nodes = [n for n in rt.graph.nodes if n.is_procedure]
        assert scheduled == len(procedure_nodes)
