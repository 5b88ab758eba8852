"""Regression: an exception escaping mid-drain must not strand work.

Before the fix, the node popped from the inconsistent set and in flight
when ``_process`` raised was simply lost — the next flush would settle
everything except it.  ``drain`` now re-marks the in-flight node and
emits ``DRAIN_ABORTED``.
"""

import pytest

from repro import (
    Cell,
    EAGER,
    EventKind,
    PropagationBudgetError,
    Runtime,
    Watchdog,
    cached,
)


class TestDrainAbortRecovery:
    def test_uncontained_error_leaves_incset_redrainable(self):
        rt = Runtime(containment=False)
        with rt.active():
            cells = [Cell(i, label=f"c{i}") for i in range(6)]
            allow_failure = [True]

            @cached(strategy=EAGER)
            def fragile():
                value = cells[0].get()
                if allow_failure[0] and value < 0:
                    raise ValueError("mid-drain failure")
                return value

            @cached(strategy=EAGER)
            def sums():
                return sum(c.get() for c in cells[1:])

            @cached(strategy=EAGER)
            def combined():
                return fragile() + sums()

            baseline = combined()
            # dirty everything, then fail mid-drain
            for c in cells:
                c.set(c.get() + 10)
            cells[0].set(-1)
            with pytest.raises(ValueError):
                rt.flush()
            assert rt.stats.drains_aborted >= 1
            # recovery: un-break the body and re-drain — nothing stranded
            allow_failure[0] = False
            rt.flush()
            assert combined() == -1 + sum(i + 10 for i in range(1, 6))
            assert not rt.pending_changes()
            rt.check_invariants()

    def test_step_budget_abort_remarks_inflight_node(self):
        rt = Runtime(watchdog=Watchdog(max_steps=2))
        with rt.active():
            cells = [Cell(i, label=f"c{i}") for i in range(8)]

            @cached(strategy=EAGER)
            def total():
                return sum(c.get() for c in cells)

            total()
            for c in cells:
                c.set(c.get() + 1)
            with pytest.raises(PropagationBudgetError):
                rt.flush()
            # the node popped at the budget check must not be lost
            rt.watchdog.max_steps = None
            rt.flush()
            assert total() == sum(i + 1 for i in range(8))
            assert not rt.pending_changes()
            rt.check_invariants()

    # The id names the order the aborted drain ran in: topological
    # (Section 4.5), the runtime's only order.
    @pytest.mark.parametrize("max_steps", [1], ids=["topological"])
    def test_drain_aborted_event_emitted(self, max_steps):
        rt = Runtime(watchdog=Watchdog(max_steps=max_steps))
        aborts = []
        rt.events.subscribe(
            EventKind.DRAIN_ABORTED,
            lambda kind, node, amount, data: aborts.append((amount, data)),
        )
        with rt.active():
            cells = [Cell(i, label=f"c{i}") for i in range(4)]

            @cached(strategy=EAGER)
            def total():
                return sum(c.get() for c in cells)

            total()
            for c in cells:
                c.set(c.get() + 1)
            with pytest.raises(PropagationBudgetError):
                rt.flush()
        assert aborts and aborts[0][1] == "PropagationBudgetError"


class TestStrictCycleRecovery:
    """Regression: a strict-mode CycleError must unwind the frame stack
    and leave the runtime usable — a later write plus flush succeeds."""

    def test_runtime_usable_after_strict_cycle(self):
        rt = Runtime(strict_cycles=True)
        with rt.active():
            from repro import CycleError

            mode = Cell("cyclic", label="mode")
            base = Cell(10, label="base")

            @cached
            def resolve():
                if mode.get() == "cyclic":
                    return resolve()  # transitive self-call
                return base.get()

            with pytest.raises(CycleError):
                resolve()
            assert rt.call_stack == []
            # a write breaking the cycle must propagate normally
            mode.set("direct")
            rt.flush()
            assert resolve() == 10
            base.set(20)
            rt.flush()
            assert resolve() == 20
            assert rt.call_stack == []
            rt.check_invariants()

    def test_consistent_valueless_cycle_leaves_runtime_usable(self):
        """The CycleError raised by ``call`` on a consistent-but-
        valueless node (first-execution self-call) must also unwind."""
        rt = Runtime()  # non-strict: cycle detected via consistent flag
        with rt.active():
            from repro import CycleError

            mode = Cell("cyclic", label="mode")

            @cached
            def loop():
                if mode.get() == "cyclic":
                    return loop()
                return 42

            with pytest.raises(CycleError):
                loop()
            assert rt.call_stack == []
            mode.set("done")
            rt.flush()
            assert loop() == 42
            rt.check_invariants()
