"""Propagation scheduling (paper Section 4.5): one drain loop, one order.

The evaluation routine drains an inconsistent set:

* "If u represents a storage location, all elements of succ(u) are added
  to the inconsistent set."
* "If u represents a demand incremental procedure instance, if
  consistent(u) is true, then we set it to false and add all elements of
  succ(u) to the inconsistent set."
* "If u represents an eager incremental procedure instance p, p is
  re-executed.  If the result value is different from value(u), all
  elements of succ(u) are added to the inconsistent set."

The third rule is the quiescence cut: propagation stops along paths
where recomputation reproduced the cached value (Section 2).

*What* happens per node is fixed by the paper, and so is *which
pending node goes next*: "the amount of computation is minimized when
done in a topological order with respect to the graph".  Each
partition's inconsistent set is a min-heap keyed by the incrementally
maintained height labels of :mod:`repro.core.order`, so popping it is
the priority evaluation — O(log n) per step.  Labels only rise, so a
stale key can only pop a node early (degrading schedule quality, never
correctness).  :class:`Scheduler` applies the processing rules over
three drain lifecycles: full drain, budgeted drain, global flush.

The unit of draining is a partition (:class:`PartitionScheduler`), not
the runtime: :meth:`Scheduler.drain` claims one partition, processes it
to empty, and releases it.  The scheduler itself holds no per-drain
state, so disjoint partitions can drain concurrently on a thread pool
(see :mod:`repro.core.parallel`) through one shared Scheduler.

The scheduler counts its work into the draining thread's stats (so the
counts stay exact under ``parallel_drains``) and announces it on the
runtime's event bus (``PROPAGATION_STEP``, ``EAGER_REEXECUTION``,
``QUIESCENCE_CUT``, ``DRAIN``) only for kinds some handler observes;
drain boundary events carry their partition id in ``data``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from .errors import NodeExecutionError
from .events import EventKind
from .node import DepNode, NodeKind, Poisoned, values_equal
from .partition import PartitionScheduler
from .stats import RuntimeStats

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Runtime

__all__ = ["Scheduler"]

# Per-node kinds as module globals: cheaper to look up than Enum
# attributes.
_PROPAGATION_STEP = EventKind.PROPAGATION_STEP
_EAGER_REEXECUTION = EventKind.EAGER_REEXECUTION
_QUIESCENCE_CUT = EventKind.QUIESCENCE_CUT


class Scheduler:
    """Drains partitions' inconsistent sets for one runtime.

    Re-entrancy: eager re-execution can itself call incremental
    procedures, which per Algorithm 5 would try to force evaluation
    again.  We suppress nested forcing per *thread* (the runtime's
    execution context tracks a drain depth) — the outer drain loop will
    reach any newly marked nodes anyway (they land in the same or a
    merged partition's set).  Cross-thread exclusion is per *partition*:
    ``begin_drain`` claims ownership, so two threads drain a partition
    never, and disjoint partitions freely in parallel.

    The per-drain step budget is ``max_steps`` of the runtime's
    :class:`~repro.core.watchdog.Watchdog`, which covers :meth:`drain`
    and :meth:`drain_budget` alike.
    """

    def __init__(self, runtime: "Runtime") -> None:
        self.runtime = runtime

    @property
    def active(self) -> bool:
        """True while *this thread* is inside a drain."""
        return self.runtime._context.drain_depth > 0

    # -- drain lifecycles ------------------------------------------------

    def drain(self, part: PartitionScheduler) -> int:
        """Process one partition to empty; returns the number of steps.

        Returns 0 without draining when this thread is already inside a
        drain (nested forcing suppressed) or another thread owns this
        partition.

        Abort safety: if anything escapes — a watchdog trip, a strict-
        mode cycle, a KeyboardInterrupt — the node in flight is returned
        to its partition's inconsistent set, so no pending work is
        stranded and the next flush resumes exactly where this drain
        stopped.
        """
        rt = self.runtime
        ctx = rt._context
        if ctx.drain_depth:
            return 0
        partitions = rt.partitions
        if not partitions.begin_drain(part):
            return 0
        stats = ctx.stats
        events = rt.events
        observed = events.observed
        watchdog = rt.watchdog
        budget = None
        if watchdog is not None and watchdog.enabled:
            budget = watchdog.begin(stats)
        steps = 0
        current: Optional[DepNode] = None
        incset = part.incset
        guard = partitions.guard()
        ctx.drain_depth += 1
        if incset and EventKind.DRAIN_STARTED in observed:
            # A non-empty set always yields >= 1 step, so the paired
            # DRAIN / DRAIN_ABORTED end event is guaranteed to follow.
            size = len(incset)
            events.emit(EventKind.DRAIN_STARTED, None, size, {"partition": part.pid})
        try:
            while not part.superseded:
                with guard:
                    current = incset.pop()
                if current is None:
                    break
                steps += 1
                stats.propagation_steps += 1
                if _PROPAGATION_STEP in observed:
                    events.emit(_PROPAGATION_STEP, current)
                if budget is not None:
                    budget.step(current)
                self._process(current)
                current = None
        except BaseException as exc:
            if current is not None:
                partitions.mark(current)
            self._aborted(stats, current, steps, exc)
            raise
        finally:
            ctx.drain_depth -= 1
            partitions.end_drain(part)
            if steps:
                self._drained(stats, steps, {"partition": part.pid})
        return steps

    def drain_budget(self, max_steps: int) -> int:
        """Spend up to ``max_steps`` of propagation work, then stop.

        The paper's idle-cycles mode: "the evaluation routine should be
        called whenever cycles are available (input/output, etc) and can
        be preempted when necessary."  Unlike :meth:`drain`, running out
        of budget is not an error — remaining work stays pending and the
        next call (or the next forced evaluation) continues it.
        """
        rt = self.runtime
        ctx = rt._context
        if ctx.drain_depth or max_steps <= 0:
            return 0
        partitions = rt.partitions
        stats = ctx.stats
        events = rt.events
        observed = events.observed
        watchdog = rt.watchdog
        budget = None
        if watchdog is not None and watchdog.enabled:
            budget = watchdog.begin(stats)
        done = 0
        pending_size = sum(len(p.incset) for p in partitions.pending_parts())
        if pending_size and EventKind.DRAIN_STARTED in observed:
            events.emit(EventKind.DRAIN_STARTED, None, amount=pending_size)
        guard = partitions.guard()
        ctx.drain_depth += 1
        try:
            while done < max_steps:
                pending = partitions.pending_parts()
                if not pending:
                    break
                for part in pending:
                    if not partitions.begin_drain(part):
                        continue
                    node: Optional[DepNode] = None
                    try:
                        while done < max_steps and not part.superseded:
                            with guard:
                                node = part.incset.pop()
                            if node is None:
                                break
                            done += 1
                            stats.propagation_steps += 1
                            if _PROPAGATION_STEP in observed:
                                events.emit(_PROPAGATION_STEP, node)
                            if budget is not None:
                                budget.step(node)
                            self._process(node)
                            node = None
                    except BaseException as exc:
                        if node is not None:
                            partitions.mark(node)
                        self._aborted(stats, node, done, exc)
                        raise
                    finally:
                        partitions.end_drain(part)
                    if done >= max_steps:
                        break
        finally:
            ctx.drain_depth -= 1
            if done:
                self._drained(stats, done, None)
        return done

    def _drained(self, stats: RuntimeStats, steps: int, data: Any) -> None:
        """Count and announce a drain pass of ``steps`` steps."""
        stats.drains += 1
        events = self.runtime.events
        if EventKind.DRAIN in events.observed:
            events.emit(EventKind.DRAIN, None, steps, data)

    def _aborted(
        self, stats: RuntimeStats, node: Any, steps: int, exc: BaseException
    ) -> None:
        """Count and announce a drain torn down by ``exc``."""
        stats.drains_aborted += 1
        events = self.runtime.events
        if EventKind.DRAIN_ABORTED in events.observed:
            events.emit(EventKind.DRAIN_ABORTED, node, steps, type(exc).__name__)

    def drain_all(self) -> int:
        """Flush every pending partition (a global "evaluate now").

        With ``Runtime(parallel_drains=N)`` the flush fans pending
        partitions out to the parallel executor; otherwise each drains
        in turn on the calling thread.
        """
        rt = self.runtime
        if rt._context.drain_depth:
            return 0
        executor = rt._parallel
        if executor is not None:
            return executor.drain_pending()
        total = 0
        # Draining one set can dirty another (via cross-partition unions
        # created by re-execution), so loop to a fixpoint.
        while True:
            pending = rt.partitions.pending_parts()
            if not pending:
                break
            progressed = False
            for part in pending:
                steps = self.drain(part)
                total += steps
                if steps or not part.incset:
                    # Emptied by draining, a merge, or lazy discard.
                    progressed = True
            if not progressed:
                break  # every remaining partition is owned elsewhere
        return total

    # -- the paper's per-node processing rules (fixed) -------------------

    def _process(self, node: DepNode) -> None:
        rt = self.runtime
        if node.kind is NodeKind.STORAGE:
            # The storage's node.value was already refreshed by modify();
            # just wake the dependents.
            rt.partitions.mark_successors(node)
        elif node.kind is NodeKind.DEMAND:
            if node.consistent:
                node.consistent = False
                rt.partitions.mark_successors(node)
        else:  # EAGER: re-execute now, propagate only on value change
            if node.thunk is None:
                # A checkpoint-restored eager node whose procedure has
                # not been re-called yet: there is no body to run, so it
                # degrades to demand behaviour — flip the flag, wake the
                # dependents, and let the eventual adopting call
                # re-execute it.
                if node.consistent:
                    node.consistent = False
                    rt.partitions.mark_successors(node)
                return
            if rt._poison_live and rt.containment:
                # Error containment: an eager node whose input is
                # currently poisoned becomes poisoned itself without
                # re-running its body — the body would only re-raise
                # through the poisoned read, and skipping it keeps the
                # drain deterministic.
                source = self._poisoned_input(rt, node)
                if source is not None:
                    rt._poison_from_input(node, source)
                    rt.partitions.mark_successors(node)
                    return
            resil = rt._resilience
            if resil is not None and rt.containment:
                # Quarantine: a procedure whose circuit breaker is open
                # is known-bad — poison without burning drain budget on
                # its body.  The next demand read half-open-probes it
                # (see Runtime.call), which is also the healing path.
                source = resil.quarantine_poison(node)
                if source is not None:
                    rt._poison_from_input(node, source)
                    rt.partitions.mark_successors(node)
                    return
            old = node.value
            had_value = node.has_value()
            try:
                rt.execute_node(node)
            except NodeExecutionError:
                # Containment captured the body's failure into a
                # Poisoned value on the node; the drain continues and
                # the poison propagates as an ordinary value change.
                pass
            stats = rt._context.stats
            observed = rt.events.observed
            stats.eager_reexecutions += 1
            if _EAGER_REEXECUTION in observed:
                rt.events.emit(_EAGER_REEXECUTION, node)
            if had_value and values_equal(old, node.value):
                stats.quiescent_stops += 1
                node.cut_at = rt._tick()
                if _QUIESCENCE_CUT in observed:
                    rt.events.emit(_QUIESCENCE_CUT, node)
            else:
                rt.partitions.mark_successors(node)

    @staticmethod
    def _poisoned_input(rt: "Runtime", node: DepNode) -> Optional[Poisoned]:
        # Under parallel_drains another thread may be running this very
        # node, rewriting ``node.pred``; scan it under the lock that
        # guards every edge edit.
        with rt.partitions.guard():
            for pred in node.pred:
                value = pred.value
                if type(value) is Poisoned:
                    return value
        return None
