"""The structural auditor: ``rt.check_invariants()``."""

import pytest

from repro import Cell, EAGER, IntegrityError, LRU, Runtime, cached


@pytest.fixture
def rt():
    runtime = Runtime()
    with runtime.active():
        yield runtime


def _busy_runtime(rt):
    cells = [Cell(i, label=f"c{i}") for i in range(5)]

    @cached
    def total():
        return sum(c.get() for c in cells)

    @cached(strategy=EAGER)
    def doubled():
        return total() * 2

    doubled()
    for c in cells:
        c.set(c.get() + 1)
    rt.flush()
    doubled()
    return cells, total, doubled


class TestCleanAudits:
    def test_fresh_runtime_is_sound(self, rt):
        assert rt.check_invariants() == []

    def test_busy_runtime_is_sound(self, rt):
        _busy_runtime(rt)
        assert rt.check_invariants() == []

    def test_pending_changes_are_sound(self, rt):
        """The audit must accept un-drained (pending) state, not require
        full quiescence of values — only structural agreement."""
        cells, total, doubled = _busy_runtime(rt)
        cells[0].set(999)  # marked, not yet drained
        assert rt.check_invariants() == []
        rt.flush()
        assert rt.check_invariants() == []

    def test_after_eviction_is_sound(self, rt):
        cell = Cell(1, label="c")

        @cached(policy=lambda: LRU(2))
        def f(i):
            return cell.get() + i

        for i in range(6):  # evictions happen
            f(i)
        assert rt.check_invariants() == []


class TestCorruptionDetection:
    def test_dangling_frame_reported(self, rt):
        from repro.core.runtime import _Frame
        from repro.core.node import DepNode, NodeKind

        rt.call_stack.append(_Frame(DepNode(NodeKind.DEMAND, label="ghost")))
        with pytest.raises(IntegrityError) as excinfo:
            rt.check_invariants()
        assert any("call stack" in v for v in excinfo.value.violations)
        rt.call_stack.clear()

    def test_flag_without_membership_reported(self, rt):
        cell = Cell(1, label="c")

        @cached
        def f():
            return cell.get()

        f()
        node = rt.node_for(f, ())
        node.in_inconsistent_set = True  # flag set, never added to a set
        violations = rt.check_invariants(raise_on_violation=False)
        assert violations
        assert any("in_inconsistent_set" in v for v in violations)
        node.in_inconsistent_set = False
        assert rt.check_invariants() == []

    def test_link_to_a_node_outside_the_live_set_reported(self, rt):
        cell = Cell(1, label="c")

        @cached
        def f():
            return cell.get()

        f()
        node = rt.node_for(f, ())
        # Out of the live set without graph.dispose: its edges remain.
        del rt.graph._live[node]
        violations = rt.check_invariants(raise_on_violation=False)
        assert violations == [
            "'c' is linked (succ) to 'f()', which is not a live node"
        ]
        rt.graph._live[node] = None
        assert rt.check_invariants() == []

    def test_asymmetric_edge_reported(self, rt):
        cell = Cell(1, label="c")

        @cached
        def f():
            return cell.get()

        f()
        node = rt.node_for(f, ())
        src = next(iter(node.pred))
        # corrupt: drop the edge from the source's succ map only
        del src.succ[node]
        violations = rt.check_invariants(raise_on_violation=False)
        assert any("succ map" in v for v in violations)

    def test_stash_left_at_quiescence_reported(self, rt):
        """A stash of in-edges awaiting a re-read lives only while its
        body runs; one left behind holds edges outside ``pred``."""
        cell = Cell(1, label="c")

        @cached
        def f():
            return cell.get()

        f()
        node = rt.node_for(f, ())
        node.stash, node.pred = node.pred, {}  # as if a body never ended
        violations = rt.check_invariants(raise_on_violation=False)
        assert any("1 stashed in-edge(s) at quiescence" in v for v in violations)
        node.pred, node.stash = node.stash, None
        assert rt.check_invariants() == []

    def test_label_below_a_predecessor_reported(self, rt):
        _, total, doubled = _busy_runtime(rt)
        node = rt.node_for(total, ())
        assert rt.check_invariants() == []
        node.order = 0  # corrupt: below the storage cells it reads
        violations = rt.check_invariants(raise_on_violation=False)
        assert any("not upwards" in v and "total()" in v for v in violations)

    def test_label_audit_waits_out_cycles(self, rt):
        """Edges on a cycle cannot all point upwards, so once an insert
        has closed one the audit stops checking labels."""
        cell = Cell(1, label="c")

        @cached
        def f():
            return cell.get()

        f()
        node = rt.node_for(f, ())
        rt.graph.create_edge(node, node)  # a self-loop closes a cycle
        assert rt.order.cycles_detected == 1
        assert rt.check_invariants() == []

    def test_error_lists_all_violations(self, rt):
        from repro.core.runtime import _Frame
        from repro.core.node import DepNode, NodeKind

        rt.call_stack.append(_Frame(DepNode(NodeKind.DEMAND, label="ghost")))
        with pytest.raises(IntegrityError) as excinfo:
            rt.check_invariants()
        assert excinfo.value.violations == rt.check_invariants(
            raise_on_violation=False
        )
        rt.call_stack.clear()
