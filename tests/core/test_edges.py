"""Dependency edges as adjacency-map entries (§9.2).

An edge ``src -> dst`` is two entries, ``src.succ[dst]`` and
``dst.pred[src]``, written and deleted together by
:class:`~repro.core.graph.DependencyGraph`.  A node's two maps are its
successor and predecessor edge lists.
"""

import gc
import random

from repro import Cell, cached
from repro.core.events import EventBus
from repro.core.graph import DependencyGraph
from repro.core.node import DepNode, NodeKind
from repro.core.order import TopologicalOrder
from repro.core.partition import PartitionManager
from repro.core.stats import RuntimeStats

from ..counting import tally


def _graph():
    events = EventBus()
    stats = RuntimeStats()
    graph = DependencyGraph(
        events,
        TopologicalOrder(),
        PartitionManager(events, stats=stats),
        stats=stats,
    )
    return graph, stats


def _storage(graph, label):
    return graph.new_storage_node(label)


def _proc(graph, label):
    return graph.new_procedure_node(NodeKind.DEMAND, label)


def _assert_symmetric(nodes):
    for node in nodes:
        for dst in node.succ:
            assert node in dst.pred, f"{node.label} -> {dst.label}"
        for src in node.pred:
            assert node in src.succ, f"{src.label} -> {node.label}"


def _edge_count(nodes):
    return sum(len(node.succ) for node in nodes)


class TestEdgeList:
    def test_new_list_is_empty(self):
        node = DepNode(NodeKind.STORAGE, label="n")
        assert node.succ == {} and node.pred == {}
        assert not node.succ and not node.pred

    def test_attach_populates_both_lists(self):
        graph, _ = _graph()
        a, b = _storage(graph, "a"), _proc(graph, "b")
        assert graph.create_edge(a, b) is True
        assert list(a.succ) == [b]
        assert list(b.pred) == [a]
        assert not a.pred and not b.succ

    def test_detach_removes_from_both_lists(self):
        graph, _ = _graph()
        a, b = _storage(graph, "a"), _proc(graph, "b")
        graph.create_edge(a, b)
        assert graph.remove_pred_edges(b) == 1
        assert not a.succ and not b.pred

    def test_detach_is_idempotent(self):
        graph, stats = _graph()
        a, b = _storage(graph, "a"), _proc(graph, "b")
        graph.create_edge(a, b)
        graph.remove_pred_edges(b)
        assert graph.remove_pred_edges(b) == 0  # no error, no corruption
        assert graph.remove_succ_edges(a) == 0
        assert stats.edges_removed == 1
        _assert_symmetric([a, b])

    def test_double_attach_rejected(self):
        graph, stats = _graph()
        a, b = _storage(graph, "a"), _proc(graph, "b")
        assert graph.create_edge(a, b) is True
        assert graph.create_edge(a, b) is False
        assert len(a.succ) == 1 and len(b.pred) == 1
        assert stats.edges_created == 1

    def test_multiple_edges_preserved_in_order_of_insertion(self):
        graph, _ = _graph()
        hub = _storage(graph, "hub")
        others = [_proc(graph, f"o{i}") for i in range(5)]
        for other in others:
            graph.create_edge(hub, other)
        assert list(hub.succ) == others

    def test_remove_middle_edge(self):
        graph, _ = _graph()
        hub = _storage(graph, "hub")
        others = [_proc(graph, f"o{i}") for i in range(3)]
        for other in others:
            graph.create_edge(hub, other)
        graph.remove_pred_edges(others[1])
        assert list(hub.succ) == [others[0], others[2]]

    def test_nodes_iterates_far_ends(self):
        graph, _ = _graph()
        a, b, c = _storage(graph, "a"), _proc(graph, "b"), _proc(graph, "c")
        graph.create_edge(a, b)
        graph.create_edge(a, c)
        assert {n.label for n in a.succ} == {"b", "c"}
        assert [n.label for n in b.pred] == ["a"]

    def test_self_edge_supported(self):
        graph, stats = _graph()
        a = _proc(graph, "a")
        assert graph.create_edge(a, a) is True
        assert list(a.succ) == [a] and list(a.pred) == [a]
        assert graph.remove_pred_edges(a) == 1
        assert not a.succ and not a.pred
        graph.create_edge(a, a)
        assert graph.remove_succ_edges(a) == 1
        assert not a.succ and not a.pred
        assert stats.live_edges == 0

    def test_many_edges_detach_all(self):
        graph, stats = _graph()
        sources = [_storage(graph, f"s{i}") for i in range(1000)]
        hub = _proc(graph, "hub")
        for source in sources:
            graph.create_edge(source, hub)
        assert len(hub.pred) == 1000
        assert graph.remove_pred_edges(hub) == 1000
        assert not hub.pred
        assert not any(source.succ for source in sources)
        assert stats.live_edges == 0


class TestSymmetry:
    def test_maps_stay_symmetric_under_random_edits(self):
        rng = random.Random(7)
        graph, stats = _graph()
        nodes = [_storage(graph, f"s{i}") for i in range(6)]
        nodes += [_proc(graph, f"p{i}") for i in range(10)]
        for _ in range(400):
            op = rng.random()
            node = rng.choice(nodes)
            if op < 0.7:
                graph.create_edge(rng.choice(nodes), node)
            elif op < 0.9:
                before = len(node.pred)
                assert graph.remove_pred_edges(node) == before
            else:
                before = len(node.succ)
                assert graph.remove_succ_edges(node) == before
            _assert_symmetric(nodes)
            assert stats.live_edges == _edge_count(nodes)

    def test_removal_counts_match_the_event_stream(self):
        graph, stats = _graph()
        counts = tally(graph.events)
        sources = [_storage(graph, f"s{i}") for i in range(4)]
        targets = [_proc(graph, f"t{i}") for i in range(3)]
        for source in sources:
            for target in targets:
                graph.create_edge(source, target)
        assert graph.remove_succ_edges(sources[0]) == 3
        assert graph.remove_pred_edges(targets[0]) == 3  # s0 already gone
        assert stats.edges_removed == counts["edges_removed"] == 6
        assert stats.edges_created == counts["edges_created"] == 12
        assert stats.live_edges == _edge_count(sources + targets) == 6
        _assert_symmetric(sources + targets)

    def test_disposal_detaches_both_directions(self, rt):
        cell = Cell(1, label="c")

        @cached
        def mid():
            return cell.get()

        @cached
        def top():
            return mid() + 1

        top()
        node = rt.node_for(mid, ())
        top_node = rt.node_for(top, ())
        assert list(node.pred) == [cell._node]
        assert list(node.succ) == [top_node]
        rt._dispose_node(node)  # the cache-eviction teardown
        assert not node.pred and not node.succ
        assert node not in cell._node.succ and node not in top_node.pred
        _assert_symmetric(rt.graph.nodes)
        assert rt.stats.live_edges == 0
        assert rt.check_invariants() == []


class TestReentrantActivation:
    def test_reentry_leaves_one_in_edge_per_source(self, rt):
        """A body that writes its own input and re-enters itself: the
        inner activation edges c and d, then the outer one reads them
        again.  Each source must still be edged exactly once."""
        c = Cell(0, label="c")
        d = Cell(3, label="d")

        @cached
        def f():
            if c.get() == 0:
                c.set(3)
                f()
            return c.get() + d.get()

        assert f() == 6
        node = rt.node_for(f, ())
        assert rt.stats.live_edges == 2
        assert len(node.pred) == 2
        assert {p.label for p in node.pred} == {"c", "d"}
        assert rt.check_invariants() == []
        d.set(4)
        assert f() == 7
        assert rt.stats.live_edges == 2


def test_new_edges_allocate_no_gc_tracked_objects():
    """1000 edges between existing nodes add dict entries only: the
    number of objects the cycle collector tracks stays flat."""
    graph, _ = _graph()
    root = _storage(graph, "root")
    sources = [_storage(graph, f"s{i}") for i in range(40)]
    targets = [_proc(graph, f"t{j}") for j in range(25)]
    sink = _proc(graph, "sink")
    # Warm-up edges give every map a first entry, so no dict changes
    # tracking state during the measured loop.
    for source in sources:
        graph.create_edge(source, sink)
    for target in targets:
        graph.create_edge(root, target)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for source in sources:
            for target in targets:
                graph.create_edge(source, target)
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert _edge_count(sources) == 40 * 26
    assert grown < 50, f"{grown} tracked objects for 1000 edges"
