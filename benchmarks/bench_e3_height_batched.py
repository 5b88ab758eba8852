"""E3 — §3.4: many changes are batched and cost O(|AFFECTED|).

Paper claim: "Changes to many pointers in the tree, however, are
batched by the evaluation algorithm and result in O(|AFFECTED|) (plus
quiescence propagation bookkeeping) computations, where AFFECTED is the
set of height values that are different."

Reproduced series: per batch size k on a fixed tree, re-executions for
the batch, the naive sum-of-paths cost (one propagation per change),
and the exhaustive cost (k full passes).
"""

import math

from repro import Runtime
from repro.trees import Tree, TreeNil, build_balanced, nil
from repro.trees.height import collect_nodes

from .tableio import emit

N = 2**12 - 1  # fixed tree
BATCHES = [1, 4, 16, 64, 256]


def _bottom_nodes(root):
    return [
        node
        for node in collect_nodes(root)
        if isinstance(node.field_cell("left").peek(), TreeNil)
        and isinstance(node.field_cell("right").peek(), TreeNil)
    ]


def _batched_cost(k):
    runtime = Runtime()
    with runtime.active():
        leaf = nil()
        root = build_balanced(N, leaf)
        root.height()
        targets = _bottom_nodes(root)[:k]
        before = runtime.stats.snapshot()
        with runtime.batch():  # explicit transaction: one drain at commit
            for node in targets:
                node.left = Tree(key=-1, left=leaf, right=leaf)
        root.height()  # one propagation serves the whole batch
        delta = runtime.stats.delta(before)
    return delta["executions"], delta


def test_e3_batched_changes_cost_affected_once(benchmark):
    height = int(math.log2(N + 1))
    rows = []
    last_delta = {}
    for k in BATCHES:
        execs, last_delta = _batched_cost(k)
        naive = k * (height + 2)  # one root path per change, unbatched
        rows.append((k, execs, naive, k * N))
        # each batch is served at most once per affected node: cheaper
        # than the per-change naive sum once paths share ancestors
        assert execs <= naive
        assert execs < N  # never degenerates to the exhaustive pass
    emit(
        "E3",
        f"batched changes on n={N}: cost ~ |AFFECTED|, not k * path",
        ["k", "reexecutions", "naive k*path", "exhaustive k*n"],
        rows,
        counters={"largest_batch_delta": last_delta},
    )
    # sublinearity in k: 256 changes cost far less than 256x one change
    one = rows[0][1]
    many = rows[-1][1]
    assert many < 256 * one * 0.5

    # wall-clock: a 16-change batch + query
    runtime = Runtime()
    with runtime.active():
        leaf = nil()
        root = build_balanced(N, leaf)
        root.height()
        targets = _bottom_nodes(root)

        state = {"i": 0}

        def batch_cycle():
            base = state["i"]
            with runtime.batch():
                for node in targets[base : base + 16]:
                    node.left = Tree(key=-1, left=leaf, right=leaf)
            state["i"] = (base + 16) % (len(targets) - 16)
            return root.height()

        benchmark(batch_cycle)
