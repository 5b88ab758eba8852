"""E9 — §6.3: graph partitioning batches irrelevant changes.

Paper claim: "The result of this analysis is many small dependency
graphs, each with their own inconsistent set.  This will decrease the
likelihood that eager evaluation will be forced due to irrelevant
changes and thus will allow more inconsistencies to be batched."

Workload: K independent maintained-height trees.  The mutator edits
tree 0 repeatedly while querying tree 1.  With partitioning ON, tree
1's queries never force propagation of tree 0's pending changes; with
partitioning OFF (one global inconsistent set), every query flushes
everything.

Reproduced series: per tree count/size, propagation steps triggered by
the *unrelated* queries, partitioned vs unpartitioned.
"""

import time

from repro import Cell, EAGER, Runtime, cached
from repro.trees import Tree, TreeNil, build_balanced, nil
from repro.trees.height import collect_nodes

from .tableio import emit, ops_counters

SIZES = [2**8 - 1, 2**10 - 1]
EDITS = 32


def _leaf_parents(root):
    return [
        node
        for node in collect_nodes(root)
        if isinstance(node.field_cell("left").peek(), TreeNil)
    ]


def _interleaved(partitioning):
    runtime = Runtime(partitioning=partitioning)
    with runtime.active():
        leaf_a, leaf_b = nil(), nil()
        edited = build_balanced(SIZES[0], leaf_a)
        queried = build_balanced(SIZES[0], leaf_b)
        edited.height()
        queried.height()
        targets = _leaf_parents(edited)[:EDITS]
        before = runtime.stats.snapshot()
        for node in targets:
            node.left = Tree(key=-1, left=leaf_a, right=leaf_a)
            queried.height()  # unrelated query between every edit
        delta = runtime.stats.delta(before)
        # finally settle the edited tree
        edited.height()
    return delta["propagation_steps"], delta["forced_evaluations"], delta[
        "executions"
    ]


def test_e9_partitioning_batches_unrelated_changes(benchmark):
    steps_on, forced_on, exec_on = _interleaved(partitioning=True)
    steps_off, forced_off, exec_off = _interleaved(partitioning=False)
    emit(
        "E9",
        f"{EDITS} edits to tree A interleaved with queries on tree B",
        ["partitioning", "prop_steps", "forced_evals", "reexecutions"],
        [
            ("on", steps_on, forced_on, exec_on),
            ("off", steps_off, forced_off, exec_off),
        ],
    )
    # With partitioning, B's queries are pure cache hits: nothing forces
    # A's pending changes, so propagation happens once at the end.
    assert forced_on <= 1
    assert steps_on < steps_off
    # Without partitioning every query flushes the global set.
    assert forced_off >= EDITS

    # wall-clock: the partitioned interleaving
    benchmark(lambda: _interleaved(partitioning=True))


# --- E9b: concurrent drains over K disjoint components ----------------

#: Disjoint components; with 4 workers the 8 drains run in two waves.
PARALLEL_PARTS = 8
PARALLEL_WORKERS = 4
#: Each body models a GIL-releasing kernel (I/O, native code) with a
#: sleep: on a single CPU, that is where parallel drains buy wall-clock
#: — pure-Python bodies serialize on the GIL regardless of workers.
KERNEL_SECONDS = 0.01
_ROUNDS = 3


def _kernel_rig(parallel):
    kwargs = {"parallel_drains": PARALLEL_WORKERS} if parallel else {}
    runtime = Runtime(**kwargs)
    cells, procs = [], []
    with runtime.active():
        for i in range(PARALLEL_PARTS):
            cell = Cell(0, label=f"k{i}")

            def body(cell=cell):
                time.sleep(KERNEL_SECONDS)
                return cell.get() + 1

            body.__name__ = f"kernel{i}"
            proc = cached(strategy=EAGER)(body)
            proc()
            cells.append(cell)
            procs.append(proc)
        runtime.flush()
    return runtime, cells, procs


def _timed_flush(parallel):
    """Best-of-N wall time of one all-partitions flush, plus op deltas."""
    runtime, cells, procs = _kernel_rig(parallel)
    best = float("inf")
    with runtime.active():
        before = runtime.stats.snapshot()
        for round_no in range(_ROUNDS):
            for j, cell in enumerate(cells):
                cell.set((round_no + 1) * 100 + j)
            start = time.perf_counter()
            runtime.flush()
            best = min(best, time.perf_counter() - start)
        delta = runtime.stats.delta(before)
        values = [proc() for proc in procs]
        runtime.check_invariants()
    runtime.close()
    return best, delta, values


def test_e9b_parallel_drain_speedup(benchmark):
    serial_s, serial_ops, serial_values = _timed_flush(parallel=False)
    parallel_s, parallel_ops, parallel_values = _timed_flush(parallel=True)
    speedup = serial_s / parallel_s if parallel_s else float("inf")
    emit(
        "E9b",
        f"{PARALLEL_PARTS} disjoint kernel partitions, one flush "
        f"(serial vs parallel_drains={PARALLEL_WORKERS})",
        ["mode", "flush_s", "reexecutions", "prop_steps"],
        [
            (
                "serial",
                serial_s,
                serial_ops["executions"],
                serial_ops["propagation_steps"],
            ),
            (
                f"parallel{PARALLEL_WORKERS}",
                parallel_s,
                parallel_ops["executions"],
                parallel_ops["propagation_steps"],
            ),
            ("speedup", speedup, "-", "-"),
        ],
        counters={
            "ops": ops_counters(parallel_ops),
            "speedup": speedup,
            "workers": PARALLEL_WORKERS,
            "partitions": PARALLEL_PARTS,
        },
    )
    # Same answers, same amount of incremental work, either way.
    assert serial_values == parallel_values
    assert serial_ops["executions"] == parallel_ops["executions"]
    assert serial_ops["propagation_steps"] == parallel_ops["propagation_steps"]
    # The headline: overlapping the blocking kernels must buy real time.
    assert speedup >= 1.5, (
        f"parallel drain speedup {speedup:.2f}x below the 1.5x floor "
        f"(serial {serial_s * 1e3:.1f} ms, parallel {parallel_s * 1e3:.1f} ms)"
    )

    benchmark(lambda: _timed_flush(parallel=True))
