"""E7 — §9.1: space is O(M) for constant referenced-argument sets; the
dense-dependence case costs O(M^2) edges AND yields zero speedup.

Paper claims: "In many Alphonse applications, the Alphonse procedures
have constant sized referenced argument sets, and thus an O(M) space
requirement. ... The edges of the dependency graph, however, could
require O(M^2) space if dependencies between top-level variables and
incremental procedure instances grows dense. ... In the O(M^2) case,
essentially every part of the computation is dependent upon the entire
computation.  Thus, every change will trigger the re-execution of O(M)
incrementally maintained procedures resulting in zero speedup."

Reproduced series:
* sparse (height tree): live edges / M stays constant as M grows;
* dense (every summary reads every cell): edges ~ M^2 / const, and one
  change re-executes ~ all procedures (zero speedup).
"""

from repro import Cell, Runtime, cached
from repro.trees import build_balanced, nil

from .tableio import emit

SPARSE_SIZES = [2**8 - 1, 2**10 - 1, 2**12 - 1]
DENSE_SIZES = [8, 16, 32, 64]


def _sparse_space(n):
    runtime = Runtime()
    with runtime.active():
        root = build_balanced(n, nil())
        root.height()
        stats = runtime.stats
        m = stats.storage_nodes_created + stats.procedure_nodes_created
        return m, stats.live_edges


def _dense_space(m):
    runtime = Runtime()
    with runtime.active():
        cells = [Cell(i, label=f"c{i}") for i in range(m)]
        summaries = []
        for i in range(m):

            def make(i=i):
                @cached
                def summary():
                    return sum(c.get() for c in cells) + i

                return summary

            summaries.append(make())
        for s in summaries:
            s()
        edges = runtime.stats.live_edges
        # one change: every summary must re-execute (zero speedup)
        before = runtime.stats.snapshot()
        cells[0].set(999)
        for s in summaries:
            s()
        reexec = runtime.stats.delta(before)["executions"]
    return edges, reexec


def test_e7_space_shapes(benchmark):
    rows = []
    for n in SPARSE_SIZES:
        m, edges = _sparse_space(n)
        rows.append((n, m, edges, round(edges / m, 2)))
        # constant referenced-arg sets: edges per node bounded
        assert edges / m < 4
    emit(
        "E7a",
        "sparse (height tree): edges grow linearly with M",
        ["n", "M_nodes", "live_edges", "edges/M"],
        rows,
    )
    # ratio stays flat across a 16x growth in M
    assert abs(rows[-1][3] - rows[0][3]) < 0.5

    rows_dense = []
    for m in DENSE_SIZES:
        edges, reexec = _dense_space(m)
        rows_dense.append((m, edges, m * m, reexec))
        # every procedure reads every cell: ~M^2 edges
        assert edges >= m * m
        # zero speedup: a single change re-runs all M summaries
        assert reexec == m
    emit(
        "E7b",
        "dense (all-pairs): edges ~ M^2 and one change re-runs all M",
        ["M", "live_edges", "M^2", "reexec_after_1_change"],
        rows_dense,
    )
    # quadratic growth: doubling M ~quadruples edges
    e1, e2 = rows_dense[-2][1], rows_dense[-1][1]
    assert 3.0 < e2 / e1 < 5.0

    # wall-clock: building the sparse graph for the mid size
    def build_sparse():
        runtime = Runtime()
        with runtime.active():
            root = build_balanced(SPARSE_SIZES[0], nil())
            return root.height()

    benchmark(build_sparse)
