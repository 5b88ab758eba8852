"""Quiescence propagation (§4.5): demand marking, eager re-execution,
quiescence cuts, evaluation limits."""

import pytest

from repro import Cell, EAGER, PropagationBudgetError, Runtime, Watchdog, cached


class TestDemandPropagation:
    def test_demand_nodes_marked_not_executed(self, rt):
        cell = Cell(1, label="x")
        runs = []

        @cached
        def reader():
            runs.append(1)
            return cell.get()

        reader()
        cell.set(2)
        rt.flush()  # propagation marks, must not execute demand bodies
        assert len(runs) == 1
        # next call re-executes
        assert reader() == 2
        assert len(runs) == 2

    def test_transitive_demand_marking(self, rt):
        cell = Cell(1, label="x")

        @cached
        def level1():
            return cell.get()

        @cached
        def level2():
            return level1() + 10

        @cached
        def level3():
            return level2() + 100

        assert level3() == 111
        cell.set(5)
        assert level3() == 115
        # all three levels re-executed exactly once more
        assert rt.stats.executions == 6


class TestEagerPropagation:
    def test_eager_reexecutes_during_flush(self, rt):
        cell = Cell(1, label="x")
        runs = []

        @cached(strategy=EAGER)
        def eager_reader():
            runs.append(1)
            return cell.get()

        eager_reader()
        cell.set(2)
        rt.flush()
        assert len(runs) == 2  # re-executed by propagation itself
        # and the value is already cached
        executions = rt.stats.executions
        assert eager_reader() == 2
        assert rt.stats.executions == executions

    def test_quiescence_cut_stops_propagation(self, rt):
        """If an eager intermediate recomputes to the same value, its
        dependents are not re-executed (the paper's central economy)."""
        cell = Cell(5, label="x")
        downstream_runs = []

        @cached(strategy=EAGER)
        def sign():
            return 1 if cell.get() > 0 else -1

        @cached(strategy=EAGER)
        def report():
            downstream_runs.append(1)
            return f"sign is {sign()}"

        assert report() == "sign is 1"
        cell.set(7)  # sign recomputes to 1 again: quiescent
        rt.flush()
        assert len(downstream_runs) == 1
        assert rt.stats.quiescent_stops >= 1

    def test_value_change_propagates_through_eager_chain(self, rt):
        cell = Cell(1, label="x")

        @cached(strategy=EAGER)
        def a():
            return cell.get() * 2

        @cached(strategy=EAGER)
        def b():
            return a() + 1

        assert b() == 3
        cell.set(10)
        rt.flush()
        executions = rt.stats.executions
        assert b() == 21
        assert rt.stats.executions == executions  # all done eagerly

    def test_mixed_eager_demand_chain(self, rt):
        cell = Cell(1, label="x")
        demand_runs = []

        @cached(strategy=EAGER)
        def eager_part():
            return cell.get() + 1

        @cached
        def demand_part():
            demand_runs.append(1)
            return eager_part() * 10

        assert demand_part() == 20
        cell.set(2)
        rt.flush()
        # eager part already recomputed; demand part only marked
        assert len(demand_runs) == 1
        assert demand_part() == 30
        assert len(demand_runs) == 2


class TestTopologicalScheduling:
    def test_diamond_reexecutes_each_node_once(self, rt):
        """With topological ordering, the join of a diamond re-executes
        once, not once per path."""
        cell = Cell(1, label="x")
        runs = {"left": 0, "right": 0, "join": 0}

        @cached(strategy=EAGER)
        def left():
            runs["left"] += 1
            return cell.get() + 1

        @cached(strategy=EAGER)
        def right():
            runs["right"] += 1
            return cell.get() + 2

        @cached(strategy=EAGER)
        def join():
            runs["join"] += 1
            return left() + right()

        assert join() == 5
        cell.set(10)
        rt.flush()
        assert runs == {"left": 2, "right": 2, "join": 2}
        assert join() == 23

    def test_deep_chain_propagation_is_linear(self, rt):
        cell = Cell(0, label="x")
        depth = 30

        procs = []
        prev = None
        for i in range(depth):
            if prev is None:

                def make_base():
                    @cached(strategy=EAGER)
                    def base():
                        return cell.get()

                    return base

                prev = make_base()
            else:

                def make_layer(below):
                    @cached(strategy=EAGER)
                    def layer():
                        return below() + 1

                    return layer

                prev = make_layer(prev)
            procs.append(prev)

        top = procs[-1]
        assert top() == depth - 1
        baseline = rt.stats.eager_reexecutions
        cell.set(100)
        rt.flush()
        # exactly one re-execution per level
        assert rt.stats.eager_reexecutions - baseline == depth
        assert top() == 100 + depth - 1


class TestEvaluationLimit:
    def test_limit_raises_on_runaway_propagation(self):
        """The per-drain step cap is the watchdog's ``max_steps``; there
        is no second one."""
        with pytest.raises(TypeError, match="eval_limit"):
            Runtime(eval_limit=10)
        runtime = Runtime(watchdog=Watchdog(max_steps=10))
        with runtime.active():
            cells = [Cell(i, label=f"c{i}") for i in range(50)]

            @cached
            def total():
                return sum(c.get() for c in cells)

            total()
            for c in cells:
                c.set(c.peek() + 1)
            with pytest.raises(PropagationBudgetError) as excinfo:
                runtime.flush()
        assert excinfo.value.kind == "steps"
        assert runtime.stats.watchdog_trips == 1

    def test_no_limit_by_default(self, rt):
        cells = [Cell(i, label=f"c{i}") for i in range(50)]

        @cached
        def total():
            return sum(c.get() for c in cells)

        total()
        for c in cells:
            c.set(c.peek() + 1)
        rt.flush()  # no error
        assert total() == sum(i + 1 for i in range(50))
