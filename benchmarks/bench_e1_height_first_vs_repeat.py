"""E1 — §3.4: first height() call is O(n); repeat calls are O(1).

Paper claim: "When the method is maintained, O(|subtree(t)|) time is
used for the first call.  Subsequent height calls on t or any of its
descendants, however, will require O(1) time, since the result values
are cached."

Reproduced series: per tree size n, procedure executions for the first
root query, for a repeat root query, and for a random descendant query;
plus the exhaustive baseline's node visits.
"""

import random

from repro import Runtime
from repro.obs import RuntimeMetrics
from repro.trees import build_balanced, nil
from repro.trees.height import collect_nodes, exhaustive_height

from .tableio import emit, ops_counters

SIZES = [2**8 - 1, 2**10 - 1, 2**12 - 1, 2**14 - 1]


def _measure(n, metrics=None):
    runtime = Runtime()
    if metrics is not None:
        metrics.attach(runtime)
    try:
        with runtime.active():
            leaf = nil()
            root = build_balanced(n, leaf)
            before = runtime.stats.snapshot()
            root.height()
            first = runtime.stats.delta(before)["executions"]

            before = runtime.stats.snapshot()
            root.height()
            repeat = runtime.stats.delta(before)["executions"]

            descendant = random.Random(1).choice(collect_nodes(root))
            before = runtime.stats.snapshot()
            descendant.height()
            descendant_cost = runtime.stats.delta(before)["executions"]

            # exhaustive baseline visits every node on every query
            exhaustive = n
            assert exhaustive_height(root) == root.height()
    finally:
        if metrics is not None:
            metrics.detach()
    ops = ops_counters(runtime.stats.snapshot())
    return first, repeat, descendant_cost, exhaustive, ops


def test_e1_first_vs_repeat_shape(benchmark):
    rows = []
    counters = {}
    for n in SIZES:
        # instrument the largest size: its op counts + metric snapshot
        # land in the experiment record for the CI regression gate
        metrics = RuntimeMetrics() if n == SIZES[-1] else None
        first, repeat, descendant, exhaustive, ops = _measure(n, metrics)
        rows.append((n, first, repeat, descendant, exhaustive))
        if metrics is not None:
            counters = {"ops": ops, "metrics": metrics.snapshot()}
        # shape assertions: first is Theta(n), repeats are O(1)
        assert first == n + 1  # n nodes + the shared sentinel
        assert repeat == 0
        assert descendant == 0
        assert exhaustive == n
    emit(
        "E1",
        "maintained height: first query O(n), repeats O(1) (executions)",
        ["n", "first_call", "repeat_call", "descendant", "exhaustive/query"],
        rows,
        counters=counters,
    )

    # wall-clock: the repeat query on the largest tree
    runtime = Runtime()
    with runtime.active():
        root = build_balanced(SIZES[-1], nil())
        root.height()
        result = benchmark(lambda: root.height())
    assert result == root.height()
