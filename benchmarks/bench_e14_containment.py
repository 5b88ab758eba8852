"""E14 — fault containment is (nearly) free on the no-fault path.

`docs/robustness.md` layers error containment onto `execute_node` and
the eager drain: a try/except around every body, a poison check on
every cached read, and a poisoned-input scan gated behind the
`_poison_live` counter (skipped entirely while nothing is poisoned).
The claim worth measuring: with **zero faults**, a drain under
containment performs *identical* operations and costs within a few
percent of `Runtime(containment=False)`.

Reproduced series: the E2 workload (single pointer change + requery on
a balanced tree, demand-driven) and an eager fan-in (one cell change +
flush), each run both ways — operation counters must match exactly;
the wall-clock ratio is recorded into BENCH_core.json.
"""

import time

from repro import Cell, EAGER, Runtime, cached
from repro.trees import Tree, TreeNil, build_balanced, nil

from .tableio import emit

TREE_SIZES = [2**10 - 1, 2**12 - 1]
ROUNDS = 200
TRIALS = 5


def _leftmost_interior(root):
    node = root
    while True:
        left = node.field_cell("left").peek()
        if isinstance(left, TreeNil):
            return node
        node = left


def _tree_cycle(n, containment):
    """E2's change-and-requery loop; returns (best seconds, op deltas)."""
    runtime = Runtime(containment=containment)
    with runtime.active():
        leaf = nil()
        root = build_balanced(n, leaf)
        root.height()
        node = _leftmost_interior(root)
        toggle = [Tree(key=-1, left=leaf, right=leaf), leaf]

        def cycle():
            for _ in range(ROUNDS):
                toggle.reverse()
                node.left = toggle[0]
                root.height()

        cycle()  # warm-up: both toggle positions cached
        best = None
        before = runtime.stats.snapshot()
        for _ in range(TRIALS):
            t0 = time.perf_counter()
            cycle()
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        delta = runtime.stats.delta(before)
    return best, delta


def _eager_cycle(n_cells, containment):
    """One-cell change + flush through an eager fan-in, repeatedly."""
    runtime = Runtime(containment=containment)
    with runtime.active():
        cells = [Cell(i, label=f"c{i}") for i in range(n_cells)]
        group = 4

        @cached(strategy=EAGER)
        def mid(g):
            return sum(c.get() for c in cells[g * group:(g + 1) * group])

        @cached(strategy=EAGER)
        def top():
            return sum(mid(g) for g in range(n_cells // group))

        top()

        def cycle():
            for i in range(ROUNDS):
                cells[i % n_cells].set(1000 + i)
                runtime.flush()

        cycle()  # warm-up
        best = None
        before = runtime.stats.snapshot()
        for _ in range(TRIALS):
            t0 = time.perf_counter()
            cycle()
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        delta = runtime.stats.delta(before)
    return best, delta


def test_e14_no_fault_containment_overhead(benchmark):
    rows = []
    ratios = []
    workloads = [
        (f"tree/{n}", lambda n=n, c=True: _tree_cycle(n, c),
         lambda n=n: _tree_cycle(n, False))
        for n in TREE_SIZES
    ] + [
        ("eager/64", lambda: _eager_cycle(64, True),
         lambda: _eager_cycle(64, False)),
    ]
    for name, with_containment, without in workloads:
        on_time, on_delta = with_containment()
        off_time, off_delta = without()
        # identical work: containment adds checks, never operations
        assert on_delta == off_delta, (name, on_delta, off_delta)
        ratio = on_time / max(off_time, 1e-9)
        ratios.append(ratio)
        rows.append(
            (name, on_delta["executions"], on_delta["propagation_steps"],
             round(ratio, 3))
        )
    ratios.sort()
    median = ratios[len(ratios) // 2]
    emit(
        "E14",
        "containment overhead on fault-free drains (on/off time ratio)",
        ["workload", "reexecutions", "prop_steps", "time_ratio"],
        rows,
        counters={"containment_overhead_median_ratio": round(median, 3)},
    )
    # target is <= 1.10; the assert leaves slack for machine noise
    assert median < 1.25, ratios

    # wall-clock: the contained E2 cycle at the smaller size
    runtime = Runtime()
    with runtime.active():
        leaf = nil()
        root = build_balanced(TREE_SIZES[0], leaf)
        root.height()
        node = _leftmost_interior(root)
        toggle = [Tree(key=-1, left=leaf, right=leaf), leaf]

        def change_and_query():
            toggle.reverse()
            node.left = toggle[0]
            return root.height()

        benchmark(change_and_query)
