"""Drain watchdogs: per-drain step, wall-time, and livelock budgets.

Quiescence propagation over a well-formed Alphonse program terminates
(§4.5), but the engine cannot verify the §3.5 restrictions: a DET
violation can make propagation oscillate, and a pathological eager
region can burn unbounded time.  A :class:`Watchdog` attached to the
runtime (``Runtime(watchdog=Watchdog(...))``) turns those hangs into a
typed :class:`~repro.core.errors.PropagationBudgetError` carrying a
diagnostic of the *hot region* — the nodes most frequently re-processed
in the aborted drain — which is what an operator actually needs to find
the offending procedure.

Three independent budgets, any subset may be set:

* ``max_steps`` — total propagation steps in one drain, full or
  budgeted (``rt.idle_tick``);
* ``max_seconds`` — wall-clock time for one drain, checked per step;
* ``livelock_threshold`` — the same node processed more than K times in
  one drain, the classic signature of an oscillating eager result.

The scheduler calls :meth:`begin` at drain start, which hands back a
:class:`DrainBudget` — one budget ledger *per drain*, so concurrent
partition drains (``Runtime(parallel_drains=N)``) are each charged only
for their own partition's steps — and calls ``budget.step(node)`` per
processed node.  A watchdog with no budgets set reports ``enabled``
False and the scheduler skips the calls entirely, so the default
runtime pays nothing.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from .errors import PropagationBudgetError
from .events import EventBus, EventKind
from .node import DepNode
from .stats import RuntimeStats

__all__ = ["DrainBudget", "Watchdog"]


class DrainBudget:
    """The per-drain ledger: step count, deadline, and hot-node tally.

    One instance exists per drain (created by :meth:`Watchdog.begin`),
    never shared between drains, so a drain is charged only for its own
    partition's work even when several run concurrently.  A trip counts
    into the draining thread's ``stats``.
    """

    __slots__ = ("_dog", "_stats", "_steps", "_deadline", "_counts", "_labels")

    def __init__(self, dog: "Watchdog", stats: Optional[RuntimeStats] = None) -> None:
        self._dog = dog
        self._stats = stats
        self._steps = 0
        if dog.max_seconds is not None:
            self._deadline: Optional[float] = (
                time.monotonic() + dog.max_seconds
            )
        else:
            self._deadline = None
        #: id(node) -> times processed this drain.
        self._counts: Dict[int, int] = {}
        self._labels: Dict[int, str] = {}

    def step(self, node: DepNode) -> None:
        """Charge one propagation step to ``node``; raise on any budget."""
        dog = self._dog
        self._steps += 1
        key = id(node)
        count = self._counts.get(key, 0) + 1
        self._counts[key] = count
        if count == 1:
            self._labels[key] = node.label
        if (
            dog.livelock_threshold is not None
            and count > dog.livelock_threshold
        ):
            raise self._trip(
                node,
                "livelock",
                f"node {node.label!r} processed {count} times in one drain "
                f"(threshold {dog.livelock_threshold}); this usually means "
                f"a DET violation keeps re-dirtying the region",
            )
        if dog.max_steps is not None and self._steps > dog.max_steps:
            raise self._trip(
                node,
                "steps",
                f"drain exceeded {dog.max_steps} propagation steps",
            )
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise self._trip(
                node,
                "wall-time",
                f"drain exceeded {dog.max_seconds}s of wall time after "
                f"{self._steps} steps",
            )

    def _trip(
        self, node: DepNode, budget: str, message: str
    ) -> PropagationBudgetError:
        """Announce the trip and build the error (the span-boundary
        event the span fold pairs with the DRAIN_ABORTED that follows)."""
        hot = self.hot_nodes()
        resil = self._dog.resilience
        quarantined = resil.quarantined() if resil is not None else []
        data = {"budget": budget, "hot": hot}
        if quarantined:
            # A hot node that is also quarantined points at a failure
            # storm (breaker churn) rather than a DET bug.
            data["quarantined"] = quarantined
        if self._stats is not None:
            self._stats.watchdog_trips += 1
        events = self._dog.events
        if events is not None:
            events.emit(EventKind.WATCHDOG_TRIPPED, node, data=data)
        return PropagationBudgetError(
            budget, message, hot, quarantined=quarantined
        )

    def hot_nodes(self) -> List[Tuple[str, int]]:
        """The most frequently processed nodes of this drain, as
        ``(label, count)`` pairs, hottest first."""
        ranked = sorted(
            self._counts.items(), key=lambda item: item[1], reverse=True
        )
        return [
            (self._labels[key], count)
            for key, count in ranked[: self._dog.hot_report]
        ]


class Watchdog:
    """Per-drain budget configuration; see the module docstring.

    The watchdog itself is immutable configuration plus the event bus;
    all mutable per-drain state lives on the :class:`DrainBudget` that
    :meth:`begin` returns.
    """

    __slots__ = (
        "max_steps",
        "max_seconds",
        "livelock_threshold",
        "hot_report",
        "events",
        "resilience",
    )

    def __init__(
        self,
        *,
        max_steps: Optional[int] = None,
        max_seconds: Optional[float] = None,
        livelock_threshold: Optional[int] = None,
        hot_report: int = 5,
    ) -> None:
        for name, value in (
            ("max_steps", max_steps),
            ("max_seconds", max_seconds),
            ("livelock_threshold", livelock_threshold),
        ):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        self.max_steps = max_steps
        self.max_seconds = max_seconds
        self.livelock_threshold = livelock_threshold
        self.hot_report = hot_report
        #: Event bus to announce trips on; installed by the runtime the
        #: watchdog is attached to (``Runtime(watchdog=...)``).
        self.events: Optional[EventBus] = None
        #: Resilience policy whose quarantined procedures enrich trip
        #: diagnostics; linked by ``Runtime.use_resilience``.
        self.resilience = None

    @property
    def enabled(self) -> bool:
        """True if any budget is configured."""
        return (
            self.max_steps is not None
            or self.max_seconds is not None
            or self.livelock_threshold is not None
        )

    # -- scheduler interface --------------------------------------------

    def begin(self, stats: Optional[RuntimeStats] = None) -> DrainBudget:
        """Open a fresh per-drain budget; trips count into ``stats``."""
        return DrainBudget(self, stats)
