"""Dependency-graph bookkeeping not covered elsewhere."""

from repro import Cell, Runtime, cached
from repro.core.events import EventBus
from repro.core.graph import DependencyGraph
from repro.core.node import NodeKind
from repro.core.order import TopologicalOrder
from repro.core.partition import PartitionManager
from repro.core.stats import RuntimeStats


def _graph():
    events = EventBus()
    stats = RuntimeStats()
    return (
        DependencyGraph(
            events,
            TopologicalOrder(),
            PartitionManager(events, enabled=True, stats=stats),
            stats=stats,
        ),
        stats,
    )


class TestDependencyGraph:
    def test_node_factories_count(self):
        graph, stats = _graph()
        graph.new_storage_node("s")
        graph.new_procedure_node(NodeKind.DEMAND, "p")
        assert stats.storage_nodes_created == 1
        assert stats.procedure_nodes_created == 1
        assert len(graph.nodes) == 2

    def test_create_edge_dedupe(self):
        graph, stats = _graph()
        a = graph.new_storage_node("a")
        b = graph.new_procedure_node(NodeKind.DEMAND, "b")
        assert graph.create_edge(a, b) is True
        assert graph.create_edge(a, b) is False
        assert stats.edges_created == 1

    def test_create_edge_never_duplicates(self):
        # An edge is a map entry keyed by the neighbour, so no sequence
        # of create_edge calls can hold one pair twice; after removal
        # the pair can be edged again.
        graph, stats = _graph()
        a = graph.new_storage_node("a")
        c = graph.new_storage_node("c")
        b = graph.new_procedure_node(NodeKind.DEMAND, "b")
        for src in (a, c, a, c, a):
            graph.create_edge(src, b)
        assert list(b.pred) == [a, c]
        assert list(a.succ) == [b] and list(c.succ) == [b]
        assert stats.edges_created == 2
        graph.remove_pred_edges(b)
        assert graph.create_edge(a, b) is True
        assert stats.live_edges == 1

    def test_remove_pred_edges_counts(self):
        graph, stats = _graph()
        target = graph.new_procedure_node(NodeKind.DEMAND, "t")
        for i in range(5):
            source = graph.new_storage_node(f"s{i}")
            graph.create_edge(source, target)
        removed = graph.remove_pred_edges(target)
        assert removed == 5
        assert stats.edges_removed == 5
        assert len(target.pred) == 0

    def test_remove_succ_edges_counts(self):
        graph, stats = _graph()
        source = graph.new_storage_node("s")
        for i in range(3):
            target = graph.new_procedure_node(NodeKind.DEMAND, f"t{i}")
            graph.create_edge(source, target)
        removed = graph.remove_succ_edges(source)
        assert removed == 3
        assert stats.edges_removed == 3
        assert len(source.succ) == 0

    def test_edges_union_partitions(self):
        graph, _ = _graph()
        a = graph.new_storage_node("a")
        b = graph.new_procedure_node(NodeKind.DEMAND, "b")
        assert not graph.partitions.same_partition(a, b)
        graph.create_edge(a, b)
        assert graph.partitions.same_partition(a, b)

    def test_dispose_takes_a_node_out_of_the_live_set(self):
        graph, stats = _graph()
        a = graph.new_storage_node("a")
        b = graph.new_procedure_node(NodeKind.DEMAND, "b")
        c = graph.new_procedure_node(NodeKind.DEMAND, "c")
        graph.create_edge(a, b)
        assert graph.nodes == [a, b, c]
        graph.dispose(b)
        assert graph.nodes == [a, c]
        assert not a.succ and not b.pred
        graph.dispose(b)  # idempotent
        assert graph.nodes == [a, c] and stats.edges_removed == 1


class TestEvictionTeardown:
    def test_evicted_entry_fully_detached(self):
        from repro import LRU

        rt = Runtime()
        with rt.active():
            cell = Cell(1, label="shared")

            @cached(policy=lambda: LRU(1))
            def reader(which):
                return cell.get() + which

            reader(1)
            reader(2)  # evicts the (1,) instance
            assert rt.stats.cache_evictions == 1
            # the shared cell's successors only include the live entry
            successors = list(cell._node.succ)
            assert len(successors) == 1

    def test_eviction_drops_pending_marks(self):
        from repro import LRU

        rt = Runtime()
        with rt.active():
            cell = Cell(1, label="c")

            @cached(policy=lambda: LRU(1))
            def reader(which):
                return cell.get() + which

            reader(1)
            cell.set(2)  # marks the storage; (1,) instance is stale
            reader(2)  # flushes, then evicts the (1,) instance
            rt.flush()
            assert not rt.pending_changes()
            assert reader(2) == 4
