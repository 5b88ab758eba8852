"""The :class:`ResiliencePolicy` facade: retry, breakers, deadlines.

One policy object holds runtime-wide defaults plus per-procedure
overrides, and supplies the single hook the execution core calls:
:meth:`ResiliencePolicy.execute`, which wraps a node's body run (and the
chaos fault injector, when installed, so injected faults are subject to
the same policy as organic ones) in the retry/breaker/deadline machinery.

Attach with ``Runtime(resilience=policy)`` or ``rt.use_resilience(...)``.
Off by default: when no policy is attached, ``execute_node`` performs
one ``None`` check — the same zero-cost gating as ``rt.obs``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

from ..core.errors import NodeExecutionError
from ..core.events import EventKind
from ..core.node import Poisoned
from .breaker import BreakerPolicy, CircuitBreaker, quarantined_names
from .deadline import DeadlineFrame, DeadlineInterrupt, DeadlineMonitor, \
    frame_stack
from .errors import CircuitOpenError, DeadlineExceeded
from .retry import RetryPolicy

__all__ = ["ResiliencePolicy"]

#: Sentinel distinguishing "no override" from "override with None
#: (disable the runtime-wide default for this procedure)".
_UNSET = object()


class ResiliencePolicy:
    """Failure policy for a runtime: what to do *before* poisoning.

    ``retry``, ``breaker``, and ``deadline_seconds`` set runtime-wide
    defaults applied to every procedure; :meth:`set_retry`,
    :meth:`set_breaker`, and :meth:`set_deadline` override them for a
    single procedure by name (pass ``None`` to opt a procedure out of a
    runtime-wide default).  ``clock`` and ``sleep`` are injectable for
    deterministic tests.

    A policy may be shared by several runtimes: configuration is
    read-only during execution and breaker state is keyed by procedure
    name, which is what "known bad" means across the fleet.
    """

    def __init__(
        self,
        *,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        deadline_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be > 0")
        self.default_retry = retry
        self.default_breaker = breaker
        self.default_deadline = deadline_seconds
        self._retry_overrides: Dict[str, Optional[RetryPolicy]] = {}
        self._breaker_overrides: Dict[str, Optional[BreakerPolicy]] = {}
        self._deadline_overrides: Dict[str, Optional[float]] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        # name -> (retry, breaker-or-None, deadline), resolved once per
        # procedure so the per-execution cost is a single dict hit.
        # Cleared by every set_* call; grows one entry per procedure.
        self._plans: Dict[str, tuple] = {}
        self._has_deadlines = deadline_seconds is not None
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._monitor: Optional[DeadlineMonitor] = None

    # -- configuration ------------------------------------------------

    def set_retry(self, procedure, policy: Optional[RetryPolicy]) -> None:
        """Override the retry policy for one procedure (name or proc)."""
        self._retry_overrides[_name_of(procedure)] = policy
        self._plans.clear()

    def set_breaker(self, procedure, policy: Optional[BreakerPolicy]) -> None:
        """Override the breaker policy for one procedure (name or proc)."""
        self._breaker_overrides[_name_of(procedure)] = policy
        self._plans.clear()

    def set_deadline(self, procedure, seconds: Optional[float]) -> None:
        """Override ``deadline_seconds`` for one procedure (name or proc)."""
        if seconds is not None and seconds <= 0:
            raise ValueError("deadline_seconds must be > 0")
        self._deadline_overrides[_name_of(procedure)] = seconds
        if seconds is not None:
            self._has_deadlines = True
        self._plans.clear()

    def retry_for(self, name: str) -> Optional[RetryPolicy]:
        override = self._retry_overrides.get(name, _UNSET)
        return self.default_retry if override is _UNSET else override

    def breaker_policy_for(self, name: str) -> Optional[BreakerPolicy]:
        override = self._breaker_overrides.get(name, _UNSET)
        return self.default_breaker if override is _UNSET else override

    def deadline_for(self, name: str) -> Optional[float]:
        override = self._deadline_overrides.get(name, _UNSET)
        return self.default_deadline if override is _UNSET else override

    # -- breaker state ------------------------------------------------

    def breaker_state(self, procedure) -> str:
        """``"closed"`` / ``"open"`` / ``"half-open"`` for a procedure."""
        breaker = self._breakers.get(_name_of(procedure))
        return "closed" if breaker is None else breaker.state

    def quarantined(self) -> List[str]:
        """Sorted names of procedures whose breakers are open now."""
        return quarantined_names(self._breakers)

    def reset_breaker(self, procedure) -> None:
        """Administratively close a procedure's breaker."""
        breaker = self._breakers.get(_name_of(procedure))
        if breaker is not None:
            breaker.record_success()

    def _breaker_for(self, name: str,
                     policy: BreakerPolicy) -> CircuitBreaker:
        breaker = self._breakers.get(name)
        if breaker is None:
            with self._lock:
                breaker = self._breakers.setdefault(
                    name, CircuitBreaker(name, policy))
        return breaker

    # -- hooks called by the execution core ---------------------------

    @staticmethod
    def procedure_name(node) -> str:
        """Stable per-procedure key: the proc's name, or the label stem."""
        name = getattr(node.ref, "name", None)
        if isinstance(name, str) and name:
            return name
        return node.label.split("(", 1)[0]

    def wants_probe(self, runtime, node, poison) -> bool:
        """Demand-read hook: should this quarantine-poison be probed?

        True only for a poison whose error carries the ``quarantine``
        marker (the body never actually ran), outside any drain, when
        the breaker is still open and its reset timeout has elapsed.
        The caller then re-marks the node so execution — and the
        half-open probe — happens.
        """
        if not getattr(poison.error, "quarantine", False):
            return False
        if runtime._context.drain_depth:
            return False
        breaker = self._breakers.get(self.procedure_name(node))
        if breaker is None or breaker.state != "open":
            return False
        return breaker.probe_due(self._clock())

    def quarantine_poison(self, node) -> Optional[Poisoned]:
        """Scheduler hook: poison to apply *instead of* re-executing.

        Non-None when the node's procedure breaker is open: eager
        re-execution is short-circuited and the node is poisoned with
        :class:`CircuitOpenError` without burning drain budget on a
        body known to fail.
        """
        if not self._breakers:
            return None
        name = self.procedure_name(node)
        breaker = self._breakers.get(name)
        if breaker is None or breaker.state != "open":
            return None
        return Poisoned(CircuitOpenError(name, breaker.failures), node.label)

    def execute(self, runtime, node, injector):
        """Run ``node``'s body under this policy; the core's entry point.

        Replaces the bare ``node.thunk()`` call in
        ``Runtime.execute_node``.  Order of concerns: breaker admission
        (open → raise :class:`CircuitOpenError` without running),
        then the retry loop, each attempt running the body under its
        deadline frame (and through the chaos ``injector`` when one is
        installed).  Whatever finally escapes here is contained — or
        not — by ``execute_node`` exactly as before.
        """
        name = self.procedure_name(node)
        plan = self._plans.get(name)
        if plan is None:
            breaker_policy = self.breaker_policy_for(name)
            plan = (
                self.retry_for(name),
                None if breaker_policy is None
                else self._breaker_for(name, breaker_policy),
                self.deadline_for(name),
            )
            self._plans[name] = plan
        retry, breaker, deadline = plan
        # Reading breaker state without its lock is a benign race: a
        # concurrent open may admit one extra execution, which a breaker
        # tolerates by design; every transition still happens under the
        # lock inside allow/record_*.
        if breaker is not None and breaker.state == "open":
            demand = not runtime._context.drain_depth
            allowed, transition = breaker.allow(
                demand=demand, now=self._clock())
            if transition is not None:
                self._emit_transition(runtime, node, name, transition)
            if not allowed:
                raise CircuitOpenError(name, breaker.failures)

        fast = deadline is None and not self._has_deadlines
        attempt = 0
        while True:
            attempt += 1
            try:
                if fast:
                    # No deadline anywhere in this policy: skip the
                    # frame-stack bookkeeping entirely.
                    if injector is not None:
                        result = injector.run(node, node.thunk)
                    else:
                        result = node.thunk()
                else:
                    result = self._run_once(runtime, node, injector,
                                            deadline)
            except DeadlineInterrupt:
                # Belongs to an enclosing frame: tear through untouched.
                raise
            except BaseException as exc:
                if (retry is not None
                        and attempt < retry.max_attempts
                        and isinstance(exc, Exception)
                        and getattr(exc, "containable", True)
                        and not isinstance(exc, NodeExecutionError)
                        and retry.matches(exc)):
                    delay = retry.delay_for(attempt)
                    runtime._context.stats.retries += 1
                    runtime.events.emit(
                        EventKind.RETRY,
                        node,
                        data={
                            "attempt": attempt,
                            "error": type(exc).__name__,
                            "delay": delay,
                        },
                    )
                    if delay:
                        (retry.sleep or self._sleep)(delay)
                    continue
                if (breaker is not None
                        and isinstance(exc, Exception)
                        and getattr(exc, "containable", True)
                        and not isinstance(exc, NodeExecutionError)):
                    # Only body-origin failures count toward opening:
                    # poison chained from an input is not this
                    # procedure's fault.
                    transition = breaker.record_failure(self._clock())
                    if transition is not None:
                        self._emit_transition(runtime, node, name,
                                              transition)
                raise
            if breaker is not None and (breaker.state != "closed"
                                        or breaker.failures):
                # Only take the breaker lock when there is state to
                # reset; the healthy steady state pays two attr reads.
                transition = breaker.record_success()
                if transition is not None:
                    self._emit_transition(runtime, node, name,
                                          transition)
            return result

    # -- internals ----------------------------------------------------

    def _run_once(self, runtime, node, injector, deadline):
        frames = frame_stack()
        # Cooperative enforcement at the body-entry hook site: an
        # enclosing blown deadline interrupts before more work starts.
        for frame in frames:
            if frame.blown():
                raise DeadlineInterrupt(frame)
        if deadline is None:
            if injector is not None:
                return injector.run(node, node.thunk)
            return node.thunk()

        frame = DeadlineFrame(node.label, deadline, self._clock)
        monitor = self._ensure_monitor()
        monitor.register(frame)
        frames.append(frame)
        try:
            try:
                if injector is not None:
                    result = injector.run(node, node.thunk)
                else:
                    result = node.thunk()
            except DeadlineInterrupt as interrupt:
                if interrupt.frame is frame:
                    raise self._deadline_exceeded(runtime, node,
                                                  frame) from None
                raise
            if frame.blown():
                # CPU-bound body that never hit a hook site: the timer
                # thread (or this final check) condemns it on completion.
                raise self._deadline_exceeded(runtime, node, frame)
            return result
        finally:
            frames.pop()
            monitor.unregister(frame)

    def _deadline_exceeded(self, runtime, node, frame) -> DeadlineExceeded:
        elapsed = frame.elapsed()
        runtime._context.stats.deadlines_exceeded += 1
        runtime.events.emit(
            EventKind.DEADLINE_EXCEEDED,
            node,
            data={
                "deadline_seconds": frame.deadline,
                "elapsed": round(elapsed, 6),
            },
        )
        return DeadlineExceeded(node.label, frame.deadline, elapsed)

    @staticmethod
    def _emit_transition(runtime, node, name, transition) -> None:
        runtime._context.stats.breaker_transitions += 1
        runtime.events.emit(
            EventKind.BREAKER_STATE,
            node,
            data={
                "procedure": name,
                "from": transition[0],
                "to": transition[1],
            },
        )

    def _ensure_monitor(self) -> DeadlineMonitor:
        monitor = self._monitor
        if monitor is None or monitor._closed:
            with self._lock:
                monitor = self._monitor
                if monitor is None or monitor._closed:
                    monitor = self._monitor = DeadlineMonitor(self._clock)
        return monitor

    def close(self) -> None:
        """Stop the deadline monitor thread (restarts lazily if reused)."""
        monitor = self._monitor
        if monitor is not None:
            monitor.close()


def _name_of(procedure) -> str:
    """Accept a name, an ``IncrementalProcedure``, or a decorated proc."""
    if isinstance(procedure, str):
        return procedure
    candidate = getattr(procedure, "proc", procedure)
    name = getattr(candidate, "name", None)
    if isinstance(name, str) and name:
        return name
    raise TypeError(
        f"expected a procedure name or decorated procedure, got "
        f"{procedure!r}"
    )
