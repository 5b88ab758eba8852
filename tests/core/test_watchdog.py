"""Drain watchdogs: step, wall-time, and livelock budgets."""

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


def _fanout_runtime(watchdog, n=8):
    rt = Runtime(watchdog=watchdog)
    with rt.active():
        cells = [Cell(i, label=f"w{i}") for i in range(n)]

        @cached(strategy=EAGER)
        def total():
            return sum(c.get() for c in cells)

        total()
    return rt, cells, total


class TestConstruction:
    def test_no_budgets_is_disabled(self):
        assert not Watchdog().enabled

    def test_any_budget_enables(self):
        assert Watchdog(max_steps=1).enabled
        assert Watchdog(max_seconds=0.5).enabled
        assert Watchdog(livelock_threshold=2).enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_steps": 0},
            {"max_steps": -1},
            {"max_seconds": 0},
            {"livelock_threshold": 0},
        ],
    )
    def test_nonpositive_budgets_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Watchdog(**kwargs)


class TestStepBudget:
    def test_trips_and_reports_hot_region(self):
        rt, cells, total = _fanout_runtime(Watchdog(max_steps=3))
        with rt.active():
            for c in cells:
                c.set(c.get() + 1)
            with pytest.raises(PropagationBudgetError) as excinfo:
                rt.flush()
            assert excinfo.value.kind == "steps"
            assert excinfo.value.hot_nodes  # diagnostic present
            assert rt.stats.drains_aborted == 1

    def test_work_is_redrainable_after_trip(self):
        rt, cells, total = _fanout_runtime(Watchdog(max_steps=3))
        with rt.active():
            baseline = total()
            for c in cells:
                c.set(c.get() + 1)
            with pytest.raises(PropagationBudgetError):
                rt.flush()
            rt.watchdog = None  # operator relaxes the budget
            rt.flush()
            assert total() == baseline + len(cells)
            rt.check_invariants()

    def test_under_budget_never_trips(self):
        rt, cells, total = _fanout_runtime(Watchdog(max_steps=10_000))
        with rt.active():
            cells[0].set(100)
            rt.flush()
            assert rt.stats.drains_aborted == 0


class TestWallTimeBudget:
    def test_trips_on_slow_drain(self):
        import time

        rt = Runtime(watchdog=Watchdog(max_seconds=0.01))
        with rt.active():
            cell = Cell(1, label="s0")

            @cached(strategy=EAGER)
            def slow():
                time.sleep(0.02)
                return cell.get()

            @cached(strategy=EAGER)
            def after():
                # a second stage, so the drain takes a step *after* the
                # slow body and the per-step deadline check can see the
                # elapsed time
                return slow() + 1

            after()
            cell.set(50)
            with pytest.raises(PropagationBudgetError) as excinfo:
                rt.flush()
            assert excinfo.value.kind == "wall-time"
            rt.watchdog = None
            rt.flush()
            assert after() == 51
            rt.check_invariants()


class TestLivelockDetection:
    def test_livelock_from_det_violation(self):
        """A body violating DET (fresh value each run) oscillates; the
        watchdog names it in the hot-region diagnostic."""
        rt = Runtime(watchdog=Watchdog(livelock_threshold=5))
        with rt.active():
            cell = Cell(0, label="seed")
            counter = [0]

            @cached(strategy=EAGER)
            def unstable():
                cell.get()
                counter[0] += 1
                return counter[0]  # DET violation

            @cached(strategy=EAGER)
            def watcher():
                cell.set(unstable())  # re-dirties its own input
                return None

            with pytest.raises(PropagationBudgetError) as excinfo:
                watcher()
                rt.flush()
            assert excinfo.value.kind == "livelock"
            hot_labels = [label for label, _ in excinfo.value.hot_nodes]
            assert any("unstable" in l or "watcher" in l or "seed" in l
                       for l in hot_labels)

    def test_hot_nodes_ranked_hottest_first(self):
        dog = Watchdog(livelock_threshold=100, hot_report=2)

        class FakeNode:
            def __init__(self, label):
                self.label = label

        a, b = FakeNode("a"), FakeNode("b")
        budget = dog.begin()
        for _ in range(3):
            budget.step(a)
        budget.step(b)
        assert budget.hot_nodes() == [("a", 3), ("b", 1)]


class TestSchedulingIntegration:
    def test_disabled_watchdog_costs_nothing(self, monkeypatch):
        """A watchdog with no budgets must not even be stepped."""
        begun = []
        real_begin = Watchdog.begin
        monkeypatch.setattr(
            Watchdog, "begin", lambda dog: begun.append(dog) or real_begin(dog)
        )
        dog = Watchdog()
        rt, cells, total = _fanout_runtime(dog)
        with rt.active():
            cells[0].set(99)
            rt.flush()
        assert begun == []  # never began a budget, never charged

    def test_budget_applies_to_idle_tick(self):
        rt, cells, total = _fanout_runtime(Watchdog(max_steps=2))
        with rt.active():
            for c in cells:
                c.set(c.get() + 1)
            with pytest.raises(PropagationBudgetError):
                while rt.idle_tick(100):
                    pass

    def test_drain_aborted_event_carries_exception_name(self):
        rt, cells, total = _fanout_runtime(Watchdog(max_steps=1))
        aborts = []
        rt.events.subscribe(
            EventKind.DRAIN_ABORTED,
            lambda kind, node, amount, data: aborts.append(data),
        )
        with rt.active():
            for c in cells:
                c.set(c.get() + 1)
            with pytest.raises(PropagationBudgetError):
                rt.flush()
        assert aborts == ["PropagationBudgetError"]
