"""E6 — §7.2 / Algorithm 10: spreadsheet edits cost ~ dependents, not
sheet size.

Workload topologies:
* chain — C(i) = C(i-1) + 1: an edit at the head touches every cell
  downstream (cost ~ chain length);
* fan-out — N cells all reading one source: an edit touches all N
  (cost ~ N), but editing ONE of the N touches only itself;
* grid with row-local chains — editing one row leaves other rows'
  cached values untouched regardless of sheet size.

Reproduced series: per size, re-executions for each edit kind, against
the exhaustive model's recomputation counts.
"""

from repro import Runtime
from repro.baselines.exhaustive import ExhaustiveSpreadsheet
from repro.obs import RuntimeMetrics
from repro.spreadsheet import Spreadsheet

from .tableio import emit, ops_counters

CHAINS = [16, 64, 256]
GRIDS = [4, 8, 16]


def _chain_cost(length, metrics=None):
    runtime = Runtime()
    if metrics is not None:
        metrics.attach(runtime)
    with runtime.active():
        sheet = Spreadsheet(1, length)
        sheet.set_formula(0, 0, 1)
        for col in range(1, length):
            sheet.set_formula(0, col, f"R0C{col - 1} + 1")
        sheet.value(0, length - 1)
        before = runtime.stats.snapshot()
        sheet.set_formula(0, 0, 100)
        assert sheet.value(0, length - 1) == 100 + length - 1
        head_edit = runtime.stats.delta(before)["executions"]

        before = runtime.stats.snapshot()
        sheet.set_formula(0, length - 1, f"R0C{length - 2} + 5")
        assert sheet.value(0, length - 1) == 100 + length - 2 + 5
        tail_edit = runtime.stats.delta(before)["executions"]
    if metrics is not None:
        metrics.detach()
    ops = ops_counters(runtime.stats.snapshot())
    # exhaustive baseline: reading the end of an n-chain costs n visits
    exhaustive = ExhaustiveSpreadsheet(1, length)
    exhaustive.set_constant(0, 0, 1)
    for col in range(1, length):
        exhaustive.set_formula(
            0, col, lambda s, c=col: s.value(0, c - 1) + 1
        )
    exhaustive.counter.reset()
    exhaustive.value(0, length - 1)
    return head_edit, tail_edit, exhaustive.counter.operations, ops


def test_e6_chain_and_locality(benchmark):
    rows = []
    counters = {}
    for length in CHAINS:
        metrics = RuntimeMetrics() if length == CHAINS[-1] else None
        head, tail, exhaustive, ops = _chain_cost(length, metrics)
        rows.append((length, head, tail, exhaustive))
        if metrics is not None:
            counters = {"ops": ops, "metrics": metrics.snapshot()}
        # head edit touches the whole chain (everything depends on it);
        # tail edit touches a constant-size region
        assert head >= length  # at least one execution per cell
        assert tail < 16
    emit(
        "E6a",
        "spreadsheet chain: edit cost ~ dependents (executions)",
        ["chain", "head_edit", "tail_edit", "exhaustive_read"],
        rows,
        counters=counters,
    )
    assert rows[-1][2] <= rows[0][2] + 4  # tail edits don't scale with n

    rows_grid = []
    counters_grid = {}
    for g in GRIDS:
        runtime = Runtime()
        with runtime.active():
            sheet = Spreadsheet(g, g)
            for r in range(g):
                sheet.set_formula(r, 0, r + 1)
                for c in range(1, g):
                    sheet.set_formula(r, c, f"R{r}C{c - 1} + 1")
            sheet.values()
            # edit row 0's head; read a cell in the LAST row
            before = runtime.stats.snapshot()
            sheet.set_formula(0, 0, 100)
            assert sheet.value(g - 1, g - 1) == g + g - 1
            other_row = runtime.stats.delta(before)["executions"]
            # now read row 0's end (the actual dependents)
            before = runtime.stats.snapshot()
            assert sheet.value(0, g - 1) == 100 + g - 1
            own_row = runtime.stats.delta(before)["executions"]
        rows_grid.append((f"{g}x{g}", own_row, other_row, g * g))
        if g == GRIDS[-1]:
            counters_grid = {"ops": ops_counters(runtime.stats.snapshot())}
        assert other_row == 0  # unrelated rows: pure cache hits
    emit(
        "E6b",
        "grid locality: edits never touch unrelated rows",
        ["grid", "own_row_reexec", "other_row_reexec", "cells"],
        rows_grid,
        counters=counters_grid,
    )

    # wall-clock: tail-region edit + read on the longest chain
    runtime = Runtime()
    with runtime.active():
        length = CHAINS[-1]
        sheet = Spreadsheet(1, length)
        sheet.set_formula(0, 0, 1)
        for col in range(1, length):
            sheet.set_formula(0, col, f"R0C{col - 1} + 1")
        sheet.value(0, length - 1)
        state = {"v": 0}

        def tail_edit_cycle():
            state["v"] += 1
            sheet.set_formula(0, length - 1, f"R0C{length - 2} + {state['v']}")
            return sheet.value(0, length - 1)

        benchmark(tail_edit_cycle)
