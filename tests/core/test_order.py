"""Tests for the Pearce–Kelly incremental topological ordering."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.node import DepNode, NodeKind
from repro.core.order import TopologicalOrder, verify_order


def _make(order_mgr, n):
    nodes = [DepNode(NodeKind.STORAGE, label=f"n{i}") for i in range(n)]
    for node in nodes:
        order_mgr.register(node)
    return nodes


def _add_edge(order_mgr, src, dst):
    # Both adjacency entries of src -> dst, written without a graph.
    src.succ[dst] = None
    dst.pred[src] = None
    return order_mgr.edge_added(src, dst)


class TestTopologicalOrder:
    def test_registration_assigns_increasing_orders(self):
        mgr = TopologicalOrder()
        nodes = _make(mgr, 5)
        orders = [n.order for n in nodes]
        assert orders == sorted(orders)
        assert len(set(orders)) == 5

    def test_forward_edge_is_fast_path(self):
        mgr = TopologicalOrder()
        a, b = _make(mgr, 2)
        assert _add_edge(mgr, a, b) is True
        assert mgr.shifts == 0
        assert verify_order([a, b])

    def test_backward_edge_triggers_reorder(self):
        mgr = TopologicalOrder()
        a, b = _make(mgr, 2)
        assert _add_edge(mgr, b, a) is True  # b was registered after a
        assert mgr.shifts == 1
        assert verify_order([a, b])

    def test_chain_built_backwards(self):
        mgr = TopologicalOrder()
        nodes = _make(mgr, 10)
        # Connect n9 -> n8 -> ... -> n0: every edge is "backward".
        for i in range(9, 0, -1):
            assert _add_edge(mgr, nodes[i], nodes[i - 1])
        assert verify_order(nodes)

    def test_diamond(self):
        mgr = TopologicalOrder()
        a, b, c, d = _make(mgr, 4)
        for src, dst in [(a, b), (a, c), (b, d), (c, d)]:
            assert _add_edge(mgr, src, dst)
        assert verify_order([a, b, c, d])
        assert a.order < b.order < d.order
        assert a.order < c.order < d.order

    def test_cycle_detected_and_order_untouched(self):
        mgr = TopologicalOrder()
        a, b, c = _make(mgr, 3)
        assert _add_edge(mgr, a, b)
        assert _add_edge(mgr, b, c)
        before = (a.order, b.order, c.order)
        assert _add_edge(mgr, c, a) is False  # closes a cycle
        assert mgr.cycles_detected == 1
        assert (a.order, b.order, c.order) == before

    def test_self_loop_is_a_cycle(self):
        mgr = TopologicalOrder()
        (a,) = _make(mgr, 1)
        assert _add_edge(mgr, a, a) is False
        assert mgr.cycles_detected == 1

    def test_random_dag_insertions_seeded(self):
        rng = random.Random(7)
        mgr = TopologicalOrder()
        nodes = _make(mgr, 60)
        # Build random DAG edges on a hidden total order; insert shuffled.
        hidden = list(range(60))
        rng.shuffle(hidden)
        rank = {i: r for r, i in enumerate(hidden)}
        candidate_edges = [
            (i, j)
            for i in range(60)
            for j in range(60)
            if rank[i] < rank[j]
        ]
        rng.shuffle(candidate_edges)
        for i, j in candidate_edges[:400]:
            assert _add_edge(mgr, nodes[i], nodes[j]) is True
            assert nodes[i].order < nodes[j].order
        assert verify_order(nodes)


@given(
    n=st.integers(min_value=2, max_value=25),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_property_invariant_after_random_dag_insertions(n, seed):
    """After any sequence of acyclic insertions, every edge goes
    low-order -> high-order (the PK invariant)."""
    rng = random.Random(seed)
    mgr = TopologicalOrder()
    nodes = _make(mgr, n)
    hidden = list(range(n))
    rng.shuffle(hidden)
    rank = {i: r for r, i in enumerate(hidden)}
    pairs = [(i, j) for i in range(n) for j in range(n) if rank[i] < rank[j]]
    rng.shuffle(pairs)
    for i, j in pairs[: 3 * n]:
        assert _add_edge(mgr, nodes[i], nodes[j]) is True
    assert verify_order(nodes)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_property_cycle_reported_not_crashed(seed):
    """Random insertions including cyclic ones never corrupt the order
    of the acyclic subset."""
    rng = random.Random(seed)
    mgr = TopologicalOrder()
    nodes = _make(mgr, 12)
    for _ in range(80):
        i, j = rng.randrange(12), rng.randrange(12)
        if i == j:
            continue
        src, dst = nodes[i], nodes[j]
        if not _add_edge(mgr, src, dst):
            del src.succ[dst]  # caller declines cyclic edges in this model
            del dst.pred[src]
    assert verify_order(nodes)
