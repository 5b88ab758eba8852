"""E5 — §7.1 / Algorithms 6–9: attribute-grammar edits re-evaluate only
affected attributes.

Paper context: Alphonse "subsumes grammar based languages"; incremental
attribute evaluation after an edit should touch the edited region and
the attributes whose values change, not the whole tree.

Workload: a deep let-chain  let x1 = 1 in ... let xd = x(d-1) + 1 in
xd ni ... ni, plus a wide sum tree.  Edits: (a) the innermost literal
(everything downstream changes: cost ~ chain), (b) a leaf of one arm of
the wide tree (cost ~ one root path, siblings untouched).

Reproduced series: depth/width sweep, re-executions per edit vs the
exhaustive evaluator's node visits.
"""

from repro import Runtime
from repro.ag.expr import ident, let, num, plus, root
from repro.baselines.exhaustive import OperationCounter, exhaustive_exp_value

from .tableio import emit

DEPTHS = [8, 16, 32, 64]
WIDTHS = [16, 64, 256]


def _let_chain(depth):
    """let x0 = 1 in let x1 = x0 + 1 in ... in x(d-1) ni..ni"""
    body = ident(f"x{depth - 1}")
    tree = body
    for i in reversed(range(depth)):
        bound = num(1) if i == 0 else plus(ident(f"x{i - 1}"), num(1))
        tree = let(f"x{i}", bound, tree)
        body = tree
    return root(tree)


def _wide_sum(width):
    leaves = [num(i) for i in range(width)]
    while len(leaves) > 1:
        paired = []
        for i in range(0, len(leaves) - 1, 2):
            paired.append(plus(leaves[i], leaves[i + 1]))
        if len(leaves) % 2:
            paired.append(leaves[-1])
        leaves = paired
    return root(leaves[0]), width


def test_e5_let_chain_edits(benchmark):
    rows = []
    for depth in DEPTHS:
        runtime = Runtime()
        with runtime.active():
            tree = _let_chain(depth)
            assert tree.value() == depth
            counter = OperationCounter()
            exhaustive_exp_value(tree, counter=counter)
            exhaustive = counter.operations

            # edit the innermost binding's literal: every let's bound
            # value downstream changes -> cost ~ depth, same shape as
            # exhaustive but reusing env spine work
            let1 = tree.field_cell("exp").peek()
            bound = let1.field_cell("exp1").peek()  # num(1)
            before = runtime.stats.snapshot()
            bound.int = 5
            assert tree.value() == depth + 4
            edit_all = runtime.stats.delta(before)["executions"]

            # no-op repeat
            before = runtime.stats.snapshot()
            tree.value()
            repeat = runtime.stats.delta(before)["executions"]
        rows.append((depth, edit_all, repeat, exhaustive))
        assert repeat == 0
    emit(
        "E5a",
        "let-chain: downstream-everything edit vs exhaustive (executions)",
        ["depth", "edit_reexec", "repeat", "exhaustive_visits"],
        rows,
    )

    rows_wide = []
    for width in WIDTHS:
        runtime = Runtime()
        with runtime.active():
            tree, _ = _wide_sum(width)
            base = tree.value()
            counter = OperationCounter()
            exhaustive_exp_value(tree, counter=counter)
            exhaustive = counter.operations
            # edit one leaf: only its root path re-evaluates
            node = tree.field_cell("exp").peek()
            while not hasattr(node, "_cells") or "int" not in node._cells:
                node = node.field_cell("exp1").peek()
            before = runtime.stats.snapshot()
            node.int = 1000
            assert tree.value() == base + 1000
            edit_leaf = runtime.stats.delta(before)["executions"]
        rows_wide.append((width, edit_leaf, exhaustive))
        # one path: ~log2(width) + constants, far below exhaustive
        assert edit_leaf < exhaustive / 3
    emit(
        "E5b",
        "wide sum tree: leaf edit cost ~ path, exhaustive ~ tree",
        ["width", "leaf_edit_reexec", "exhaustive_visits"],
        rows_wide,
    )
    # path growth is logarithmic: width x16 adds only a few executions
    assert rows_wide[-1][1] <= rows_wide[0][1] + 12

    # wall-clock: leaf edit + requery on widest tree
    runtime = Runtime()
    with runtime.active():
        tree, _ = _wide_sum(WIDTHS[-1])
        tree.value()
        node = tree.field_cell("exp").peek()
        while not hasattr(node, "_cells") or "int" not in node._cells:
            node = node.field_cell("exp1").peek()
        state = {"v": 0}

        def edit_cycle():
            state["v"] += 1
            node.int = state["v"]
            return tree.value()

        benchmark(edit_cycle)
