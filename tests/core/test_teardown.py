"""Node disposal and ``Runtime.teardown``: a dropped graph is freed by
reference counting, not left for a cycle collection."""

import gc

from repro import Cell, Runtime, cached
from repro.core.cache import LRU


def _built(rt, cells):
    """A small cached DAG over ``cells``, evaluated, then partly
    invalidated and re-read."""

    @cached
    def prefix(n):
        return sum(cell.get() for cell in cells[:n])

    @cached
    def total():
        return sum(prefix(n) for n in range(len(cells) + 1))

    with rt.active():
        assert total() == sum(
            sum(cell.peek() for cell in cells[:n]) for n in range(len(cells) + 1)
        )
        cells[2].set(9)
        total()


def _garbage_after(fn):
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


class TestTeardown:
    def test_a_dropped_runtime_waits_for_the_collector_without_it(self):
        def close_only():
            rt = Runtime()
            _built(rt, [Cell(i) for i in range(6)])
            rt.close()

        assert _garbage_after(close_only) > 0

    def test_teardown_leaves_nothing_for_the_collector(self):
        def torn_down():
            rt = Runtime()
            _built(rt, [Cell(i) for i in range(6)])
            rt.teardown()

        assert _garbage_after(torn_down) == 0

    def test_close_keeps_the_graph_teardown_empties_it(self):
        rt = Runtime()
        cells = [Cell(i) for i in range(4)]
        _built(rt, cells)
        rt.close()
        nodes = rt.graph.nodes
        assert nodes and rt.check_invariants() == []
        executions = rt.stats.executions
        rt.teardown()
        assert rt.closed and rt.graph.nodes == [] and rt._tables == {}
        assert rt.stats.executions == executions
        assert all(node.disposed for node in nodes)
        for node in nodes:
            assert not node.pred and not node.succ and node.stash is None
            assert node.partition_item is None and node.thunk is None
            assert node.marked_by is None
        assert all(cell._node is None for cell in cells)
        rt.teardown()  # idempotent

    def test_cache_eviction_disposes_through_the_same_step(self, rt):
        source = Cell(1, label="source")

        @cached(policy=lambda: LRU(2))
        def f(i):
            return source.get() + i

        for i in range(4):
            f(i)
        evicted = [n for n in rt.graph.nodes if n.disposed]
        assert len(evicted) == 2 and rt.stats.cache_evictions == 2
        for node in evicted:
            assert not node.pred and not node.succ
            assert node.partition_item is None and node.thunk is None
        assert node not in source._node.succ
        # The survivors' partition, which the evicted nodes shared, still
        # works: a change reaches the cached entries.
        source.set(10)
        assert f(3) == 13
        assert rt.check_invariants() == []
