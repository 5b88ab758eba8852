"""E2 — §3.4: one pointer change costs O(height), not O(n).

Paper claim: "Changes to a child field pointing to node z in the tree
will require O(height) time (plus the bookkeeping cost of the
quiescence propagation algorithm) to update all of the cached values on
the new and former paths from z to the tree root."

Reproduced series: per tree size n, re-executions after a single leaf
relink, against log2(n) and against the exhaustive O(n) baseline.
"""

import math

from repro import Runtime
from repro.trees import Tree, TreeNil, build_balanced, nil

from .tableio import emit

SIZES = [2**8 - 1, 2**10 - 1, 2**12 - 1, 2**14 - 1]


def _leftmost_interior(root):
    node = root
    while True:
        left = node.field_cell("left").peek()
        if isinstance(left, TreeNil):
            return node
        node = left


def _single_change_cost(n):
    runtime = Runtime()
    with runtime.active():
        leaf = nil()
        root = build_balanced(n, leaf)
        root.height()
        node = _leftmost_interior(root)
        before = runtime.stats.snapshot()
        node.left = Tree(key=-1, left=leaf, right=leaf)
        root.height()
        delta = runtime.stats.delta(before)
    return delta["executions"], delta["propagation_steps"], delta


def test_e2_single_change_is_path_proportional(benchmark):
    rows = []
    last_delta = {}
    for n in SIZES:
        height = int(math.log2(n + 1))
        execs, steps, last_delta = _single_change_cost(n)
        rows.append((n, height, execs, steps, n))
        # shape: cost tracks the path (height + constant), far below n
        assert execs <= height + 4
        assert execs < n // 8
    emit(
        "E2",
        "single pointer change: re-executions ~ O(height), not O(n)",
        ["n", "height", "reexecutions", "prop_steps", "exhaustive/query"],
        rows,
        counters={"largest_n_change_delta": last_delta},
    )

    # cost must grow ~logarithmically: quadrupling n adds ~2 executions
    costs = [row[2] for row in rows]
    for a, b in zip(costs, costs[1:]):
        assert b - a <= 4

    # wall-clock: one change + requery cycle on the largest tree
    runtime = Runtime()
    with runtime.active():
        leaf = nil()
        root = build_balanced(SIZES[-1], leaf)
        root.height()
        node = _leftmost_interior(root)
        toggle = [Tree(key=-1, left=leaf, right=leaf), leaf]

        def change_and_query():
            toggle.reverse()
            node.left = toggle[0]
            return root.height()

        benchmark(change_and_query)
