"""Circuit breakers: open after repeated poisonings, short-circuit
re-execution of known-bad procedures, probe on demand."""

import pytest

from repro import (
    BreakerPolicy,
    Cell,
    EAGER,
    EventKind,
    NodeExecutionError,
    ResiliencePolicy,
    Runtime,
    Watchdog,
    cached,
)
from repro.core.errors import PropagationBudgetError
from repro.resil import CircuitOpenError


def _drive_open(rt, policy, threshold=2):
    """A demand procedure driven to ``threshold`` body failures."""
    flag = Cell(False, label="flag")
    base = Cell(10, label="base")
    runs = []

    @cached
    def risky():
        runs.append(None)
        value = base.get()  # read first: later base writes re-dirty us
        if flag.get():
            raise RuntimeError(f"boom {value}")
        return value + 1

    assert risky() == 11
    flag.set(True)
    for i in range(threshold):
        base.set(100 + i)
        with pytest.raises(NodeExecutionError):
            risky()
    return risky, flag, base, runs


class TestBreakerLifecycle:
    def test_opens_after_threshold_consecutive_failures(self):
        rt = Runtime()
        with rt.active():
            policy = ResiliencePolicy(
                breaker=BreakerPolicy(failure_threshold=2, reset_timeout=1000)
            )
            rt.use_resilience(policy)
            risky, flag, base, runs = _drive_open(rt, policy)
            assert policy.breaker_state("risky") == "open"
            assert policy.quarantined() == ["risky"]

    def test_open_breaker_short_circuits_demand(self):
        rt = Runtime()
        with rt.active():
            policy = ResiliencePolicy(
                breaker=BreakerPolicy(failure_threshold=2, reset_timeout=1000)
            )
            rt.use_resilience(policy)
            risky, flag, base, runs = _drive_open(rt, policy)
            executions = len(runs)
            base.set(999)  # re-dirty: without the breaker this re-runs
            with pytest.raises(NodeExecutionError) as excinfo:
                risky()
            assert isinstance(excinfo.value.root, CircuitOpenError)
            assert len(runs) == executions  # the body never ran
            rt.check_invariants()

    def test_open_breaker_short_circuits_eager_reexecution(self):
        rt = Runtime()
        with rt.active():
            policy = ResiliencePolicy(
                breaker=BreakerPolicy(failure_threshold=1, reset_timeout=1000)
            )
            rt.use_resilience(policy)
            flag = Cell(False, label="flag")
            base = Cell(10, label="base")
            runs = []

            @cached(strategy=EAGER)
            def eager_risky():
                runs.append(None)
                value = base.get()
                if flag.get():
                    raise RuntimeError("boom")
                return value + 1

            assert eager_risky() == 11
            flag.set(True)
            base.set(20)
            rt.flush()  # first eager re-run fails; breaker opens
            assert policy.breaker_state("eager_risky") == "open"
            executions = len(runs)
            for i in range(5):
                base.set(30 + i)
                rt.flush()
            # Five more drains touched the node; the scheduler poisoned
            # it via the quarantine shortcut without running the body.
            assert len(runs) == executions
            with pytest.raises(NodeExecutionError) as excinfo:
                eager_risky()
            assert isinstance(excinfo.value.root, CircuitOpenError)
            rt.check_invariants()

    def test_half_open_probe_closes_on_success(self):
        clock = [0.0]
        rt = Runtime()
        with rt.active():
            policy = ResiliencePolicy(
                breaker=BreakerPolicy(failure_threshold=2, reset_timeout=5.0),
                clock=lambda: clock[0],
            )
            rt.use_resilience(policy)
            risky, flag, base, runs = _drive_open(rt, policy)
            assert policy.breaker_state("risky") == "open"
            flag.set(False)  # the underlying fault is fixed
            clock[0] = 10.0  # reset timeout elapses
            assert risky() == 102  # demand probes: half-open -> success
            assert policy.breaker_state("risky") == "closed"
            rt.check_invariants()

    def test_half_open_probe_reopens_on_failure(self):
        clock = [0.0]
        rt = Runtime()
        with rt.active():
            policy = ResiliencePolicy(
                breaker=BreakerPolicy(failure_threshold=2, reset_timeout=5.0),
                clock=lambda: clock[0],
            )
            rt.use_resilience(policy)
            risky, flag, base, runs = _drive_open(rt, policy)
            clock[0] = 10.0  # probe window opens; fault NOT fixed
            base.set(999)  # re-dirty so the demand reaches the breaker
            executions = len(runs)
            with pytest.raises(NodeExecutionError):
                risky()
            assert len(runs) == executions + 1  # exactly one probe ran
            assert policy.breaker_state("risky") == "open"

    def test_quarantined_poison_probes_without_new_write(self):
        # A node whose cached poison came from the breaker itself (the
        # body never ran) is re-probed on demand once the reset timeout
        # elapses — no healing write required, because the failure may
        # live outside the tracked graph entirely.
        clock = [0.0]
        rt = Runtime()
        with rt.active():
            policy = ResiliencePolicy(
                breaker=BreakerPolicy(failure_threshold=2, reset_timeout=5.0),
                clock=lambda: clock[0],
            )
            rt.use_resilience(policy)
            base = Cell(10, label="base")
            external = [False]  # untracked dependency (a remote service)
            runs = []

            @cached
            def risky():
                runs.append(None)
                value = base.get()
                if external[0]:
                    raise RuntimeError("service down")
                return value + 1

            assert risky() == 11
            external[0] = True
            for i in range(2):
                base.set(100 + i)
                with pytest.raises(NodeExecutionError):
                    risky()
            assert policy.breaker_state("risky") == "open"
            base.set(200)  # while open: short-circuited, poison is ours
            with pytest.raises(NodeExecutionError) as excinfo:
                risky()
            assert isinstance(excinfo.value.root, CircuitOpenError)
            external[0] = False  # service recovers; no tracked write
            clock[0] = 10.0
            executions = len(runs)
            assert risky() == 201  # re-demand probes the quarantine
            assert len(runs) == executions + 1
            assert policy.breaker_state("risky") == "closed"
            rt.check_invariants()

    def test_reset_breaker_administratively_closes(self):
        rt = Runtime()
        with rt.active():
            policy = ResiliencePolicy(
                breaker=BreakerPolicy(failure_threshold=1, reset_timeout=1e9)
            )
            rt.use_resilience(policy)
            risky, flag, base, runs = _drive_open(rt, policy, threshold=1)
            assert policy.quarantined() == ["risky"]
            policy.reset_breaker("risky")
            assert policy.breaker_state("risky") == "closed"
            flag.set(False)
            base.set(50)
            assert risky() == 51


class TestBreakerDiagnostics:
    def test_breaker_transitions_emit_events_and_stats(self):
        rt = Runtime()
        transitions = []
        rt.events.subscribe(
            EventKind.BREAKER_STATE,
            lambda kind, node, amount, data: transitions.append(
                (data["procedure"], data["from"], data["to"])
            ),
        )
        with rt.active():
            policy = ResiliencePolicy(
                breaker=BreakerPolicy(failure_threshold=2, reset_timeout=1000)
            )
            rt.use_resilience(policy)
            _drive_open(rt, policy)
        assert ("risky", "closed", "open") in transitions
        assert rt.stats.breaker_transitions == len(transitions)

    def test_explain_verdict_quarantined(self):
        rt = Runtime()
        with rt.active():
            policy = ResiliencePolicy(
                breaker=BreakerPolicy(failure_threshold=2, reset_timeout=1000)
            )
            rt.use_resilience(policy)
            risky, flag, base, runs = _drive_open(rt, policy)
            base.set(999)
            with pytest.raises(NodeExecutionError):
                risky()  # short-circuited: poison carries the marker
            explanation = rt.explain("risky")
            assert explanation.verdict == "quarantined"
            # No recording: the chain comes from the stamps on the graph.
            assert [(l.kind, l.label) for l in explanation.links] == [
                ("write", "base"),
                ("change-detected", "base"),
                ("marked", "base"),
                ("marked", "risky()"),
                ("poisoned", "risky()"),
            ]

    def test_watchdog_trip_reports_quarantined_procedures(self):
        rt = Runtime(watchdog=Watchdog(max_steps=3))
        with rt.active():
            policy = ResiliencePolicy(
                breaker=BreakerPolicy(failure_threshold=1, reset_timeout=1000)
            )
            rt.use_resilience(policy)
            flag = Cell(False, label="flag")

            @cached(strategy=EAGER)
            def risky():
                if flag.get():
                    raise RuntimeError("boom")
                return 0

            assert risky() == 0
            flag.set(True)
            rt.flush()  # the eager re-run fails once; the breaker opens
            assert policy.quarantined() == ["risky"]

            cells = [Cell(i, label=f"c{i}") for i in range(8)]

            @cached(strategy=EAGER)
            def fanout():
                return sum(cell.get() for cell in cells)

            fanout()
            for i, cell in enumerate(cells):
                cell.set(i + 100)
            with pytest.raises(PropagationBudgetError) as excinfo:
                rt.flush()
            assert excinfo.value.quarantined == ["risky"]
