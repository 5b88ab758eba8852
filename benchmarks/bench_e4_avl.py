"""E4 — §7.3 / Algorithm 11: maintained AVL vs hand-written AVL vs
exhaustive rebalancing.

Paper claim: the maintained specification ("balance every node, written
naively") achieves incremental update costs comparable in shape to the
expert's AVL (path-proportional work per operation), while the
exhaustive execution of the same spec costs O(n) per operation.

Reproduced series: per tree size n, average maintained re-executions
per insert, the hand-written comparator's work (nodes touched per
insert ~ path), and the exhaustive baseline (n).
"""

import math
import random

from repro import Runtime
from repro.trees import AvlTree, ConventionalAvl

from .tableio import emit

SIZES = [2**6, 2**8, 2**10, 2**12]
PROBE_OPS = 32


def _maintained_cost(n, seed=7):
    rng = random.Random(seed)
    keys = rng.sample(range(10 * n), n + PROBE_OPS)
    runtime = Runtime()
    with runtime.active():
        tree = AvlTree()
        for key in keys[:n]:
            tree.insert(key)
        tree.rebalance()
        tree.rebalance()  # settle
        before = runtime.stats.snapshot()
        for key in keys[n:]:
            tree.insert(key)
            tree.rebalance()
        execs = runtime.stats.delta(before)["executions"]
        assert tree.check_avl()
    return execs / PROBE_OPS


def _conventional_cost(n, seed=7):
    rng = random.Random(seed)
    keys = rng.sample(range(10 * n), n + PROBE_OPS)
    tree = ConventionalAvl()
    for key in keys[:n]:
        tree.insert(key)
    before = tree.rotations
    for key in keys[n:]:
        tree.insert(key)
    # rotations + the insertion path itself approximate nodes touched
    return (tree.rotations - before) / PROBE_OPS + math.log2(n)


def test_e4_avl_shapes(benchmark):
    rows = []
    for n in SIZES:
        maintained = _maintained_cost(n)
        conventional = _conventional_cost(n)
        exhaustive = n  # rebalance-from-scratch visits every node
        rows.append((n, round(maintained, 1), round(conventional, 1), exhaustive))
        # maintained work is polylogarithmic in n, exhaustive is linear:
        # the ratio must widen with n (allow slack at the smallest size)
        assert maintained < exhaustive / 2
    emit(
        "E4",
        "AVL insert cost (per op): maintained spec vs expert code vs exhaustive",
        ["n", "maintained_execs", "expert_nodes", "exhaustive_nodes"],
        rows,
    )
    # widening-gap check: maintained/exhaustive ratio shrinks with n
    ratios = [row[1] / row[3] for row in rows]
    assert ratios[-1] < ratios[0]

    # maintained cost grows far slower than n: n grew 64x, cost < 8x
    assert rows[-1][1] < rows[0][1] * 8

    # wall-clock: one insert+rebalance on the second-largest size
    runtime = Runtime()
    rng = random.Random(3)
    with runtime.active():
        tree = AvlTree()
        for key in rng.sample(range(100_000), 1024):
            tree.insert(key)
        tree.rebalance()

        def insert_cycle():
            tree.insert(rng.randrange(100_000))
            tree.rebalance()

        benchmark(insert_cycle)
