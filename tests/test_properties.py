"""Property-based tests on the central invariant: after ANY sequence of
mutations, every maintained result equals what the exhaustive
computation produces from scratch (the paper's Theorem 5.1, stated as a
property over workloads)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EAGER, Cell, EventKind, Runtime, cached
from repro.trees import Tree, build_balanced, nil
from repro.trees.height import collect_nodes, exhaustive_height
from repro.spreadsheet import CircularReference, Spreadsheet


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_ops=st.integers(min_value=1, max_value=25),
)
@settings(max_examples=40, deadline=None)
def test_height_always_matches_exhaustive(seed, n_ops):
    """Random pointer surgery on a tree; after every operation, the
    maintained height equals the exhaustive recomputation."""
    rng = random.Random(seed)
    runtime = Runtime()
    with runtime.active():
        leaf = nil()
        root = build_balanced(15, leaf)
        assert root.height() == exhaustive_height(root)
        for _ in range(n_ops):
            interior = collect_nodes(root)
            target = rng.choice(interior)
            side = rng.choice(["left", "right"])
            action = rng.random()
            if action < 0.4:
                # graft a fresh chain (acyclic by construction)
                chain: Tree = leaf
                for i in range(rng.randrange(0, 4)):
                    chain = Tree(key=i, left=chain, right=leaf)
                setattr(target, side, chain)
            elif action < 0.7:
                # cut a subtree
                setattr(target, side, leaf)
            else:
                # replace with a fresh balanced subtree
                setattr(
                    target, side, build_balanced(rng.randrange(0, 8), leaf)
                )
            assert root.height() == exhaustive_height(root)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_cells=st.integers(min_value=2, max_value=8),
    n_ops=st.integers(min_value=1, max_value=20),
)
@settings(max_examples=30, deadline=None)
def test_cached_dag_always_matches_recomputation(seed, n_cells, n_ops):
    """A random DAG of cached functions over cells: after every batch of
    cell writes, each function's value equals direct recomputation."""
    rng = random.Random(seed)
    runtime = Runtime()
    with runtime.active():
        cells = [Cell(rng.randrange(10), label=f"c{i}") for i in range(n_cells)]

        # each function reads a random subset of cells and earlier funcs
        functions = []
        specs = []
        for i in range(n_cells):
            cell_idx = sorted(
                rng.sample(range(n_cells), rng.randrange(1, n_cells + 1))
            )
            fn_idx = sorted(
                rng.sample(range(len(functions)), rng.randrange(0, len(functions) + 1))
            )
            specs.append((cell_idx, fn_idx))

            def make(cell_idx=cell_idx, fn_idx=fn_idx):
                @cached
                def fn():
                    total = sum(cells[j].get() for j in cell_idx)
                    total += sum(functions[j]() * 3 for j in fn_idx)
                    return total

                return fn

            functions.append(make())

        def reference(i):
            cell_idx, fn_idx = specs[i]
            total = sum(cells[j].peek() for j in cell_idx)
            total += sum(reference(j) * 3 for j in fn_idx)
            return total

        for i in range(len(functions)):
            assert functions[i]() == reference(i)

        for _ in range(n_ops):
            for j in rng.sample(range(n_cells), rng.randrange(1, n_cells + 1)):
                cells[j].set(rng.randrange(10))
            probe = rng.randrange(len(functions))
            assert functions[probe]() == reference(probe)
        # final: all consistent
        for i in range(len(functions)):
            assert functions[i]() == reference(i)


class _LastReads:
    """Each procedure node's read set in its last completed execution,
    rebuilt from the event stream alone: EXECUTION_STARTED opens a read
    set, ACCESS (a storage read) and CACHE_HIT/CACHE_MISS (a call) add
    to the innermost one, and a committing EXECUTION closes it.  A first
    read of a location is announced before its node exists; the
    NODE_CREATED that follows names it."""

    def __init__(self, events):
        self.last = {}
        self._open = []
        self._unnamed = False
        events.subscribe(EventKind.EXECUTION_STARTED, self._started)
        events.subscribe(EventKind.EXECUTION, self._ended)
        events.subscribe(EventKind.NODE_CREATED, self._created)
        for kind in (EventKind.ACCESS, EventKind.CACHE_HIT, EventKind.CACHE_MISS):
            events.subscribe(kind, self._read)

    def _started(self, kind, node, amount, data):
        self._open.append((node, set()))

    def _read(self, kind, node, amount, data):
        if not self._open:
            return
        if node is None:
            self._unnamed = True
        else:
            self._open[-1][1].add(node)

    def _created(self, kind, node, amount, data):
        if self._unnamed and node.is_storage:
            self._unnamed = False
            self._open[-1][1].add(node)

    def _ended(self, kind, node, amount, data):
        started, reads = self._open.pop()
        assert started is node
        if data:  # committed
            self.last[node] = reads


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_cells=st.integers(min_value=2, max_value=6),
    n_ops=st.integers(min_value=1, max_value=15),
)
@settings(max_examples=40, deadline=None)
def test_cached_dag_keeps_exactly_the_last_read_set(seed, n_cells, n_ops):
    """Random cached DAGs, demand and eager, whose bodies pick what they
    read from a selector cell's value.  A re-execution re-links the
    in-edges it reads again and drops the rest when it ends, so after
    every query: each value equals a from-scratch recomputation, each
    procedure node's in-edges are exactly what its last completed
    execution read, no node keeps a stash, and the audit is clean."""
    rng = random.Random(seed)
    runtime = Runtime()
    reads = _LastReads(runtime.events)
    with runtime.active():
        cells = [Cell(rng.randrange(10), label=f"c{i}") for i in range(n_cells)]
        functions = []
        specs = []
        for i in range(n_cells):
            selector = rng.randrange(n_cells)
            branches = tuple(
                (
                    sorted(rng.sample(range(n_cells), rng.randrange(0, n_cells + 1))),
                    sorted(rng.sample(range(i), rng.randrange(0, i + 1))),
                )
                for _ in range(2)
            )
            specs.append((selector, branches))

            def body(selector=selector, branches=branches):
                pick = cells[selector].get()
                cell_idx, fn_idx = branches[pick % 2]
                total = pick + sum(cells[j].get() for j in cell_idx)
                return total + sum(functions[j]() * 3 for j in fn_idx)

            body.__name__ = f"f{i}"
            strategy = {"strategy": EAGER} if rng.random() < 0.3 else {}
            functions.append(cached(**strategy)(body))

        def reference(i):
            selector, branches = specs[i]
            pick = cells[selector].peek()
            cell_idx, fn_idx = branches[pick % 2]
            total = pick + sum(cells[j].peek() for j in cell_idx)
            return total + sum(reference(j) * 3 for j in fn_idx)

        def check():
            for fn in functions:
                node = runtime.node_for(fn, ())
                if node is not None:
                    assert set(node.pred) == reads.last[node], node.label
            assert all(node.stash is None for node in runtime.graph.nodes)
            assert runtime.check_invariants() == []

        for i in range(n_cells):
            assert functions[i]() == reference(i)
            check()
        for _ in range(n_ops):
            for j in rng.sample(range(n_cells), rng.randrange(1, n_cells + 1)):
                cells[j].set(rng.randrange(10))
            probe = rng.randrange(n_cells)
            assert functions[probe]() == reference(probe)
            check()
        runtime.flush()
        for i in range(n_cells):
            assert functions[i]() == reference(i)
        check()


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_ops=st.integers(min_value=1, max_value=15),
)
@settings(max_examples=25, deadline=None)
def test_spreadsheet_matches_reference_model(seed, n_ops):
    """Random formula edits on a small sheet always agree with a plain
    dict-based reference recomputation."""
    rng = random.Random(seed)
    runtime = Runtime()
    rows, cols = 3, 3
    with runtime.active():
        sheet = Spreadsheet(rows, cols)
        # reference: (kind, payload) per cell
        model = {}

        def ref_value(r, c, depth=0):
            if depth > rows * cols:
                raise CircularReference(r, c)
            kind, payload = model.get((r, c), ("const", 0))
            if kind == "const":
                return payload
            (r1, c1), (r2, c2) = payload
            return ref_value(r1, c1, depth + 1) + ref_value(
                r2, c2, depth + 1
            )

        for _ in range(n_ops):
            r, c = rng.randrange(rows), rng.randrange(cols)
            if rng.random() < 0.5:
                value = rng.randrange(100)
                sheet.set_formula(r, c, value)
                model[(r, c)] = ("const", value)
            else:
                r1, c1 = rng.randrange(rows), rng.randrange(cols)
                r2, c2 = rng.randrange(rows), rng.randrange(cols)
                sheet.set_formula(r, c, f"R{r1}C{c1} + R{r2}C{c2}")
                model[(r, c)] = ("sum", ((r1, c1), (r2, c2)))

            for rr in range(rows):
                for cc in range(cols):
                    try:
                        expected = ref_value(rr, cc)
                    except CircularReference:
                        continue  # cycles checked elsewhere
                    try:
                        actual = sheet.value(rr, cc)
                    except CircularReference:
                        continue
                    assert actual == expected, (
                        f"cell R{rr}C{cc}: {actual} != {expected}"
                    )
