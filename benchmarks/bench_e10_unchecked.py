"""E10 — §6.4: the (*UNCHECKED*) pragma reduces referenced-argument
sets.

Paper claim: "consider a lookup procedure in a balanced search tree,
where the programmer can often show that the lookup is dependent upon
the found item, but not dependent upon the log(n) access operations
needed to locate it."  §9.1 adds that tree-search properties cost
O(M log M) space, reducible to O(M) with §6.4.

Workload: a cached lookup over a balanced BST.  The checked variant
records an edge per node on the search path (O(log n) per instance);
the unchecked variant reads the path inside an UNCHECKED region and
records only the found node's key cell (O(1)).

Reproduced series: per tree size, edges per lookup instance for both
variants, plus spurious invalidations when an *unrelated* region of the
tree changes.
"""

from repro import Runtime, cached, unchecked
from repro.trees import TreeNil, build_balanced, nil

from .tableio import emit

SIZES = [2**8 - 1, 2**10 - 1, 2**12 - 1]


def _bst_find(root, key):
    node = root
    while not isinstance(node, TreeNil):
        if node.key == key:
            return node
        node = node.left if key < node.key else node.right
    return None


def _edges_per_lookup(n, use_unchecked):
    runtime = Runtime()
    with runtime.active():
        root = build_balanced(n, nil())

        if use_unchecked:

            @cached
            def lookup(key):
                with unchecked():
                    found = _bst_find(root, key)
                if found is None:
                    return None
                return found.key  # tracked read of the found item only

        else:

            @cached
            def lookup(key):
                found = _bst_find(root, key)
                if found is None:
                    return None
                return found.key

        before = runtime.stats.snapshot()
        assert lookup(0) == 0  # leftmost key: the longest search path
        edges = runtime.stats.delta(before)["edges_created"]

        # A result-irrelevant change ON the search path: bump the root's
        # key (BST order preserved, the search still goes left, the found
        # item is untouched).  The checked variant depends on every key
        # it compared against, so it re-executes; unchecked does not.
        root.key = root.field_cell("key").peek() + 0.5
        before = runtime.stats.snapshot()
        assert lookup(0) == 0
        reexec = runtime.stats.delta(before)["executions"]
    return edges, reexec


def test_e10_unchecked_cuts_dependencies(benchmark):
    rows = []
    for n in SIZES:
        checked_edges, checked_reexec = _edges_per_lookup(n, False)
        unchecked_edges, unchecked_reexec = _edges_per_lookup(n, True)
        rows.append(
            (n, checked_edges, unchecked_edges, checked_reexec, unchecked_reexec)
        )
        # checked: ~3 edges per path node (key + both child pointers);
        # unchecked: a constant handful
        assert unchecked_edges <= 3
        assert checked_edges > unchecked_edges * 2
        # the unrelated change must not re-run the unchecked lookup
        assert unchecked_reexec == 0
        assert checked_reexec >= 1
    emit(
        "E10",
        "BST lookup: dependency edges per instance, checked vs UNCHECKED",
        ["n", "checked_edges", "unchecked_edges", "checked_reexec", "unchecked_reexec"],
        rows,
    )
    # checked edges grow with log n; unchecked stay flat
    assert rows[-1][1] > rows[0][1]
    assert rows[-1][2] == rows[0][2]

    # wall-clock: the unchecked lookup on the largest tree
    runtime = Runtime()
    with runtime.active():
        root = build_balanced(SIZES[-1], nil())

        @cached
        def lookup(key):
            with unchecked():
                found = _bst_find(root, key)
            return found.key if found is not None else None

        state = {"k": 0}

        def lookup_cycle():
            state["k"] = (state["k"] + 97) % SIZES[-1]
            return lookup(state["k"])

        benchmark(lookup_cycle)
