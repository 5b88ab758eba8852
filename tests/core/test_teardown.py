"""Node disposal and ``Runtime.teardown``: a disposed node leaves the
graph's live set, and a dropped graph is freed by reference counting,
not left for a cycle collection."""

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

        nodes = []
        for i in range(4):
            f(i)
            nodes.append(rt.node_for(f, (i,)))
        evicted, kept = nodes[:2], nodes[2:]
        assert rt.stats.cache_evictions == 2
        assert set(rt.graph.nodes) == {source._node, *kept}
        for node in evicted:
            assert not node.pred and not node.succ
            assert node.partition_item is None and node.thunk is None
            assert node not in source._node.succ
        # The survivors' partition, which the evicted nodes shared, still
        # works: a change reaches the cached entries.
        source.set(10)
        assert f(3) == 13
        assert rt.check_invariants() == []


class TestLiveNodes:
    """A bounded argument table bounds the graph: an evicted entry's node
    is gone from ``graph.nodes``, ``explain`` and ``inspect``."""

    def test_a_bounded_table_keeps_only_live_nodes(self, rt):
        source = Cell(0, label="source")

        @cached(policy=lambda: LRU(8))
        def f(i):
            return source.get() + i

        for i in range(20_000):
            f(i)
        assert rt.stats.cache_evictions == 20_000 - 8
        assert len(rt.graph.nodes) == 9
        assert rt.check_invariants() == []

    def test_explain_follows_the_re_created_node(self, rt):
        source = Cell(0, label="source")

        @cached(policy=lambda: LRU(2))
        def f(i):
            return source.get() + i

        for i in (1, 2, 3, 1):  # f(1) is evicted, then made again
            f(i)
        source.set(10)
        assert f(1) == 11
        live = rt.node_for(f, (1,))
        why = rt.explain("f(1)")
        assert why.verdict == "recomputed"
        assert why.links[-1].kind == "re-executed"
        assert why.links[-1].seq == live.acted_at

    def test_inspect_lists_no_evicted_node(self, rt):
        source = Cell(0, label="source")

        @cached(policy=lambda: LRU(2))
        def f(i):
            return source.get() + i

        for i in range(5):
            f(i)
        labels = sorted(n["label"] for n in rt.inspect().nodes)
        assert labels == ["f(3)", "f(4)", "source"]
