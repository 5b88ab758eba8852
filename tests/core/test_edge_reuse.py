"""Re-link, don't rebuild: a re-executed body keeps the in-edges it
reads again.

When a body runs again, ``DependencyGraph.enter`` stashes the node's
in-edges, a re-read moves a source back into ``pred`` in O(1), and
``DependencyGraph.leave`` unlinks the sources the body did not read
again, whether it returned or raised.  The edges a completed execution
leaves must be exactly Algorithm 5's, and so must every count but the
edge churn itself.  After every step the edges counted in
``stats.live_edges`` must be the edges actually present, and no node
may keep a stash.
"""

import pytest

from repro import LRU, Cell, NodeExecutionError, cached


def _settled(rt):
    """The edge bookkeeping agrees with the graph at quiescence."""
    nodes = rt.graph.nodes
    present = sum(len(node.pred) for node in nodes)
    assert present == sum(len(node.succ) for node in nodes)
    assert rt.stats.live_edges == present
    assert all(node.stash is None for node in nodes)
    assert rt.check_invariants() == []


def _sources(rt, proc):
    return {src.label for src in rt.node_for(proc, ()).pred}


class TestUnchangedReadSet:
    def test_rerun_relinks_every_edge(self, rt):
        cells = [Cell(i, label=f"c{i}") for i in range(4)]

        @cached
        def total():
            return sum(cell.get() for cell in cells)

        total()
        created, removed = rt.stats.edges_created, rt.stats.edges_removed
        unions = rt.stats.partition_unions
        for value in range(10, 15):
            cells[0].set(value)
            assert total() == value + 6
            _settled(rt)
        assert (rt.stats.edges_created, rt.stats.edges_removed) == (created, removed)
        assert rt.stats.partition_unions == unions
        assert _sources(rt, total) == {"c0", "c1", "c2", "c3"}


class TestMidBodyWrite:
    def test_a_write_before_the_reread_marks_nothing(self, rt):
        """``outer`` reads ``a``, writes ``c`` unchecked, calls
        ``helper`` (which reads ``a``, so the call drains the shared
        partition and processes ``c``) and only then reads ``c`` again.
        Under Algorithm 5 the edge ``c -> outer`` is gone until that
        re-read, so processing ``c`` must not mark ``outer``: marking it
        through the stash would cost one execution and one mark per
        cycle (5/8/11 executions, 5/10/15 marks)."""
        a, c = Cell(1, label="a"), Cell(0, label="c")

        @cached
        def helper():
            return a.get() * 2

        @cached
        def outer():
            x = a.get()
            with rt.unchecked():
                c.set(x)
            return x + helper() + c.get()

        assert outer() == 4
        seen = []
        for _ in range(3):
            a.set(a.peek() + 1)
            value = outer()
            assert outer() == value == 4 * a.peek()
            seen.append((rt.stats.executions, rt.stats.inconsistent_marks))
            _settled(rt)
        assert seen == [(4, 4), (6, 8), (8, 12)]
        assert _sources(rt, outer) == {"a", "helper()", "c"}


class TestReadSetChanges:
    def test_dropped_sources_are_unlinked_at_the_end(self, rt):
        cells = {name: Cell(i, label=name) for i, name in enumerate("abcd")}
        names = Cell(("a", "b", "c"), label="names")

        @cached
        def total():
            return sum(cells[name].get() for name in names.get())

        assert total() == 3
        for picked, value in ((("a",), 0), (("b", "d"), 4), (("a", "b", "c", "d"), 6)):
            names.set(picked)
            assert total() == value
            assert _sources(rt, total) == {"names", *picked}
            node = rt.node_for(total, ())
            for name, cell in cells.items():
                linked = cell._node is not None and node in cell._node.succ
                assert linked == (name in picked)
            _settled(rt)


class TestReentrantActivation:
    def test_reentry_drops_the_stash_as_algorithm_5_does(self, rt):
        """The outer activation re-reads ``c`` and re-enters before it
        reads anything else: the inner activation removes every in-edge,
        stashed ones included, so ``e`` (read by neither activation this
        time) is gone and the final sources are those the two
        activations read."""
        c, d, e = Cell(0, label="c"), Cell(3, label="d"), Cell(1, label="e")
        use_e = Cell(True, label="use_e")

        @cached
        def f():
            if c.get() == 0:
                c.set(3)
                f()  # re-entrant: c changed, so the same instance re-runs
            total = c.get() + d.get()
            if use_e.get():
                total += e.get()
            return total

        assert f() == 7
        assert _sources(rt, f) == {"c", "d", "use_e", "e"}
        _settled(rt)
        use_e.set(False)
        c.set(0)
        executions = rt.stats.executions
        assert f() == 6
        assert rt.stats.executions - executions == 2
        assert _sources(rt, f) == {"c", "d", "use_e"}
        assert not e._node.succ
        _settled(rt)
        d.set(4)
        assert f() == 7
        _settled(rt)


class TestEviction:
    def test_a_stashed_entry_is_evicted_as_under_algorithm_5(self, rt):
        """``outer`` last called ``f(1)`` and ``f(2)``; now it calls
        ``f(3)`` and ``f(1)``.  Under Algorithm 5 nothing depends on the
        old entries while ``outer`` runs, so LRU(2) evicts ``f(1)`` and
        then ``f(2)`` from ``outer``'s stash (an entry pinned there would
        leave the new one as the only victim); each teardown finds its
        mirror entry in the stash, not in ``pred``."""
        sel = Cell(0, label="sel")

        @cached(policy=lambda: LRU(2))
        def f(i):
            return i * 10

        @cached
        def outer():
            return sum(f(i) for i in ([3, 1] if sel.get() else [1, 2]))

        assert outer() == 30
        # Not rt.node_for(f, ...): a lookup counts as an LRU hit.
        first = next(n for n in rt.node_for(outer, ()).pred if n.label == "f(1)")
        sel.set(1)
        assert outer() == 40
        assert rt.stats.cache_evictions == 2
        assert rt.stats.executions == 6  # f(1) ran again, as a new entry
        assert first not in rt.graph.nodes
        assert _sources(rt, outer) == {"sel", "f(3)", "f(1)"}
        assert first not in rt.node_for(outer, ()).pred
        _settled(rt)


class _Fatal(Exception):
    containable = False


class TestFailingBodies:
    @pytest.mark.parametrize("error", [ValueError, _Fatal])
    def test_sources_not_reread_before_a_raise_are_unlinked(self, rt, error):
        a, b = Cell(1, label="a"), Cell(2, label="b")
        boom = Cell(False, label="boom")

        @cached
        def f():
            x = a.get()
            if boom.get():
                raise error("boom")
            return x + b.get()

        assert f() == 3
        assert _sources(rt, f) == {"a", "boom", "b"}
        boom.set(True)
        with pytest.raises(NodeExecutionError if error is ValueError else _Fatal):
            f()
        assert _sources(rt, f) == {"a", "boom"}
        assert not b._node.succ
        _settled(rt)
        boom.set(False)
        assert f() == 3
        assert _sources(rt, f) == {"a", "boom", "b"}
        _settled(rt)

    def test_a_failure_before_any_read_retries_on_demand(self, rt):
        """The stash is dropped, so ``pred`` is empty and ``Runtime.call``
        retries the zero-read failure instead of caching it for good."""
        a = Cell(1, label="a")
        state = {"fail": False, "runs": 0}

        @cached
        def f():
            state["runs"] += 1
            if state["fail"]:
                raise ValueError("transient")
            return a.get() + 1

        assert f() == 2
        state["fail"] = True
        a.set(5)
        with pytest.raises(NodeExecutionError):
            f()
        assert not rt.node_for(f, ()).pred
        assert not a._node.succ
        _settled(rt)
        state["fail"] = False
        assert f() == 6  # no write needed: the poison was not cached
        assert state["runs"] == 3
        _settled(rt)
