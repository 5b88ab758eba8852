"""Tests for the height-label incremental topological ordering."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.node import DepNode, NodeKind
from repro.core.order import TopologicalOrder, verify_order
from repro.spreadsheet import Spreadsheet


def _make(order_mgr, n, kind=NodeKind.STORAGE):
    nodes = [DepNode(kind, label=f"n{i}") for i in range(n)]
    for node in nodes:
        order_mgr.register(node)
    return nodes


def _add_edge(order_mgr, src, dst):
    # Both adjacency entries of src -> dst, written without a graph.
    src.succ[dst] = None
    dst.pred[src] = None
    return order_mgr.edge_added(src, dst)


class TestTopologicalOrder:
    def test_registration_assigns_initial_heights(self):
        mgr = TopologicalOrder()
        storage = _make(mgr, 3)
        procedures = _make(mgr, 3, NodeKind.DEMAND) + _make(mgr, 1, NodeKind.EAGER)
        assert [n.order for n in storage] == [0, 0, 0]
        assert [n.order for n in procedures] == [1, 1, 1, 1]

    def test_forward_edge_is_fast_path(self):
        mgr = TopologicalOrder()
        (a,) = _make(mgr, 1)
        (b,) = _make(mgr, 1, NodeKind.DEMAND)
        assert _add_edge(mgr, a, b) is True
        assert mgr.shifts == 0
        assert (a.order, b.order) == (0, 1)

    def test_backward_edge_triggers_reorder(self):
        mgr = TopologicalOrder()
        a, b = _make(mgr, 2)
        assert _add_edge(mgr, b, a) is True  # equal labels: a must rise
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

    def test_fresh_subtree_under_a_large_cone_moves_no_cone_label(self):
        """Linking a fresh procedure (and a fresh callee under it) below
        an old node is the fast path plus one raise of the fresh node:
        the old node's 1,000-node downstream cone keeps every label."""
        mgr = TopologicalOrder()
        (s,) = _make(mgr, 1)
        p, q, x = _make(mgr, 3, NodeKind.DEMAND)
        for src, dst in [(s, p), (p, q), (q, x)]:
            assert _add_edge(mgr, src, dst)
        cone = _make(mgr, 1000, NodeKind.DEMAND)
        above = x
        for i, node in enumerate(cone):
            assert _add_edge(mgr, above, node)
            if i % 10 == 5:  # and some fan-out straight from x
                assert _add_edge(mgr, x, node)
            above = node
        before = [node.order for node in [x, *cone]]
        shifts = mgr.shifts

        fresh, callee = _make(mgr, 2, NodeKind.DEMAND)
        assert _add_edge(mgr, fresh, x)
        assert _add_edge(mgr, callee, fresh)
        assert [node.order for node in [x, *cone]] == before
        assert mgr.shifts - shifts == 1  # only ``fresh`` rose, once
        assert callee.order < fresh.order < x.order
        assert verify_order([s, p, q, x, fresh, callee, *cone])

    def test_insert_through_an_older_cycle_terminates(self):
        """An insert whose walk enters a cycle the graph kept from an
        earlier insert raises each cycle node once, stops, and leaves
        the acyclic edges around it pointing upwards."""
        mgr = TopologicalOrder()
        a, b, c, d = _make(mgr, 4, NodeKind.DEMAND)
        assert _add_edge(mgr, a, c)
        assert _add_edge(mgr, c, a) is False  # the older cycle a <-> c
        assert _add_edge(mgr, b, d)
        assert _add_edge(mgr, d, c) is True  # walks c, then a, then stops
        assert mgr.cycles_detected == 1
        assert b.order < d.order < c.order  # the acyclic edges b -> d -> c
        assert a.order > c.order  # a rose past c; only c -> a points down


def test_sheet_edit_and_read_move_no_existing_label(rt):
    """On a 12x24 layered sheet (row 0 constants, every other cell the
    sum of two cells above), a row-0 edit builds a fresh formula tree
    under the cell's old value node; neither the edit nor a bottom-row
    read that re-evaluates it moves any label of a node that already
    existed."""
    rng = random.Random(3)
    rows, cols = 12, 24
    sheet = Spreadsheet(rows, cols)
    for r in range(rows):
        for c in range(cols):
            if r == 0:
                sheet.set_formula(r, c, rng.randrange(100))
            else:
                k = rng.randrange(10)
                sheet.set_formula(r, c, f"R{r - 1}C{c} + R{r - 1}C{(c + 1) % cols} + {k}")
    sheet.values()
    for col in (0, 7, 13):
        existing = rt.graph.nodes
        before = [node.order for node in existing]
        sheet.set_formula(0, col, rng.randrange(100))
        sheet.value(rows - 1, col)
        assert [node.order for node in existing] == before
    assert rt.order.cycles_detected == 0
    assert verify_order(rt.graph.nodes)


@given(
    n=st.integers(min_value=2, max_value=25),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_property_invariant_after_random_dag_insertions(n, seed):
    """After any sequence of acyclic insertions, every edge goes
    low label -> high label."""
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
