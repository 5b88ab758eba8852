"""The Alphonse runtime: access / modify / call (paper Sections 4 and 5).

This module implements the three operations the paper's program
transformation inserts into every Alphonse program:

* ``access(v)`` — Algorithm 3: on a tracked read inside an executing
  incremental procedure, ensure the storage has a dependency-graph node
  and add an edge from it to the top of the call stack.
* ``modify(l, v)`` — Algorithm 4: a tracked write first *accesses* the
  location (a write counts as a read: "p is dependent upon storage s that
  is written as well as read", §4.3), performs the store, and if the new
  value differs from the cached one adds the storage node to the
  inconsistent set.
* ``call(p, a1..ak)`` — Algorithm 5: look up the argument table; on a
  miss create an inconsistent node; on a hit force pending evaluation
  first; edge the node to the caller; return the cached value if
  consistent, otherwise remove stale predecessor edges, push the node on
  the call stack, mark it consistent, run the body, and cache the result.

In the Python embedding, "tracked storage" is any location from
:mod:`repro.core.cells` and incremental procedures are created with the
decorators in :mod:`repro.core.decorators`.  The Alphonse-L interpreter
(:mod:`repro.lang.interp`) drives the very same runtime.

The Runtime is the thin waist of a layered engine:

* **storage/graph kernel** — :mod:`cells`, :mod:`node`, :mod:`graph`,
  :mod:`order`, :mod:`partition`: data structures with no knowledge of
  scheduling or instrumentation;
* **scheduler** — :mod:`scheduler`: the §4.5 drain loop, popping each
  partition's inconsistent set in topological (height-label) order;
* **transaction** — :mod:`transaction`: ``with rt.batch():`` coalesces
  writes and defers propagation to commit;
* **events** — :mod:`events`: every layer announces its work on
  ``rt.events`` when some subscriber observes that kind.  Counters
  (``rt.stats``) are incremented here in the kernel, exactly even under
  ``parallel_drains`` (see :mod:`repro.core.stats`).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from .cache import ArgumentTable, CachePolicy, Unbounded
from .errors import CycleError, NodeExecutionError, RuntimeStateError
from .events import EventBus, EventKind
from .graph import DependencyGraph
from .node import (
    NO_VALUE,
    DepNode,
    NodeKind,
    Poisoned,
    procedure_instance_label,
    values_equal,
)
from .order import TopologicalOrder
from ..persist.ids import next_location_sid
from .partition import PartitionManager
from .scheduler import Scheduler
from .stats import RuntimeStats
from .transaction import Transaction
from .watchdog import Watchdog

#: Sentinel distinguishing "no incoming write value" from writing None.
_UNSET = object()

# Per-operation kinds as module globals: an Enum class attribute costs
# more to look up (~200 ns on CPython 3.11) than the set test it feeds.
_ACCESS = EventKind.ACCESS
_MODIFY = EventKind.MODIFY
_CHANGE_DETECTED = EventKind.CHANGE_DETECTED
_CACHE_HIT = EventKind.CACHE_HIT
_CACHE_MISS = EventKind.CACHE_MISS
_EXECUTION_STARTED = EventKind.EXECUTION_STARTED
_EXECUTION = EventKind.EXECUTION


def _retain_stale(poison: Poisoned, prior: Any) -> None:
    """Carry the last-known-good value onto a fresh ``Poisoned``.

    Chained through successive poisonings, so however long a node stays
    bad its most recent good value (and the moment it went stale)
    remains servable by degraded reads (``rt.read`` with
    ``ALLOW_STALE``, :mod:`repro.resil`).
    """
    if type(prior) is Poisoned:
        poison.stale_value = prior.stale_value
        poison.stamp = prior.stamp
    elif prior is not NO_VALUE:
        poison.stale_value = prior
        poison.stamp = time.monotonic()


class _Frame:
    """One call-stack entry: the executing node.

    ``freeze_edges`` implements §6.2 static graph construction: when the
    node's dependency subgraph is declared static and was already built
    by a prior execution, reads during this execution skip edge creation
    entirely.
    """

    __slots__ = ("node", "freeze_edges")

    def __init__(self, node: DepNode) -> None:
        self.node = node
        self.freeze_edges = node.static_edges and node.edges_frozen


class _Ctx:
    """Per-thread execution context: call stack, unchecked depth, drain
    depth, and the counters this thread bumps.

    The runtime's mutable per-activation state must be thread-local so
    concurrent partition drains (``Runtime(parallel_drains=N)``) never
    interleave frames: each worker thread gets its own context lazily,
    and the serial path always uses the single context of the creating
    thread.  All contexts stay registered on the runtime so the
    integrity audit can check quiescence across every thread.
    """

    __slots__ = ("stack", "unchecked", "drain_depth", "stats")

    def __init__(self, stats: RuntimeStats) -> None:
        self.stack: List[_Frame] = []
        self.unchecked = 0
        #: >0 while this thread is inside a scheduler drain; suppresses
        #: nested forced evaluation (Algorithm 5's re-entrancy guard).
        self.drain_depth = 0
        #: Where this thread counts: ``rt.stats``, or a private copy on
        #: a parallel-drain worker until its wave ends.
        self.stats = stats


class _ThreadContexts(threading.local):
    """One runtime's :class:`_Ctx` per thread, made on the thread's first
    touch (the creating thread's at once) and registered on ``contexts``
    so the integrity audit sees every thread."""

    def __init__(self, stats: RuntimeStats, contexts: List[_Ctx]) -> None:
        self.ctx = _Ctx(stats)
        contexts.append(self.ctx)


class Runtime:
    """One independent Alphonse universe.

    Parameters
    ----------
    partitioning:
        Enable Section 6.3 union-find graph partitioning (per-partition
        inconsistent sets).  Disabling it reproduces the pre-optimization
        behaviour where any pending change forces evaluation at every
        incremental call — the ablation measured by bench E9.
    strict_cycles:
        If True, a re-entrant call to an already-executing procedure
        instance raises :class:`CycleError` instead of silently returning
        the stale cached value (the paper's Algorithm 5 behaviour).
    max_reentry:
        Ceiling on nested activations of one procedure instance; a DET
        violation that re-enters without end raises :class:`CycleError`.
    events:
        An existing :class:`EventBus` to announce on (one is created if
        omitted).  Useful for attaching subscribers before the kernel
        emits its first event.
    containment:
        Fault containment (the default).  A containable exception raised
        by a procedure body is captured into a
        :class:`~repro.core.node.Poisoned` cached value instead of
        tearing down propagation; demand reads of a poisoned result
        raise :class:`~repro.core.errors.NodeExecutionError`, and the
        next write reaching the poisoned region heals it through
        ordinary re-evaluation.  ``containment=False`` restores the
        pre-containment behaviour: body exceptions propagate raw and the
        node is simply left inconsistent.
    watchdog:
        Optional :class:`~repro.core.watchdog.Watchdog` enforcing
        per-drain step/wall-time budgets and livelock detection — the
        guard against DET violations that make propagation oscillate.
    resilience:
        Optional :class:`~repro.resil.ResiliencePolicy` deciding what to
        do with a failing body *before* containment poisons it: retry
        with backoff, quarantine behind a circuit breaker, or bound it
        with an execution deadline (see ``docs/robustness.md``).  The
        default (None) costs one attribute check per execution, exactly
        like the fault-injector hook.
    parallel_drains:
        Opt-in concurrency: with ``parallel_drains=N`` (N > 1), global
        flushes (``rt.flush()``, batch commits touching several
        partitions) drain disjoint partitions concurrently on a pool of
        up to N threads (see :mod:`repro.core.parallel`).  Requires
        ``partitioning=True``.  The default (None) keeps the engine
        single-threaded with zero locking on the hot path.
    """

    def __init__(
        self,
        *,
        partitioning: bool = True,
        strict_cycles: bool = False,
        max_reentry: int = 10_000,
        events: Optional[EventBus] = None,
        containment: bool = True,
        watchdog: Optional[Watchdog] = None,
        resilience: Optional[Any] = None,
        parallel_drains: Optional[int] = None,
    ) -> None:
        self.events = events if events is not None else EventBus()
        #: Operation counters, incremented by the kernel as it works.
        self.stats = RuntimeStats()
        #: Sequence numbers for the causal stamps the kernel writes on
        #: nodes (``DepNode.marked_at`` and its siblings), read by
        #: :mod:`repro.obs.explain`.
        self._tick: Callable[[], int] = itertools.count(1).__next__
        self.order = TopologicalOrder()
        self.partitions = PartitionManager(
            self.events, partitioning, self.stats, self._tick
        )
        self.graph = DependencyGraph(
            self.events, self.order, self.partitions, self.stats
        )
        self.scheduler = Scheduler(self)
        #: Per-thread execution contexts (call stack, unchecked depth,
        #: drain depth), created lazily per thread; the creating
        #: thread's context exists from the start.
        self._contexts: List[_Ctx] = []
        self._local = _ThreadContexts(self.stats, self._contexts)
        self._parallel: Optional[Any] = None
        self.parallel_drains = parallel_drains
        if parallel_drains is not None and parallel_drains > 1:
            if not partitioning:
                raise ValueError(
                    "parallel_drains requires partitioning=True"
                )
            from .parallel import ParallelDrainExecutor

            self._parallel = ParallelDrainExecutor(self, parallel_drains)
            self.partitions.enable_locking()
            self.events.use_lock()
        self.strict_cycles = strict_cycles
        self.max_reentry = max_reentry
        self.containment = containment
        self.watchdog = watchdog
        if watchdog is not None:
            watchdog.events = self.events
        #: Lazily created introspection facade (see :attr:`obs`).
        self._obs: Optional[Any] = None
        #: Fault-injection hook (see :mod:`repro.testing.chaos`): when
        #: set, ``execute_node`` routes every body run through
        #: ``injector.run(node, thunk)``.  Testing-only; None in
        #: production, costing one attribute check per execution.
        self._fault_injector: Optional[Any] = None
        #: Resilience policy hook (see :mod:`repro.resil`): when set,
        #: ``execute_node`` routes every body run through
        #: ``policy.execute(self, node, injector)`` — retry loops,
        #: breaker admission, and deadline frames wrap the body there.
        #: None by default, costing one attribute check per execution.
        self._resilience: Optional[Any] = None
        #: Execution clock (see :class:`~repro.obs.metrics.RuntimeMetrics`):
        #: when set, ``execute_node`` reads ``time.perf_counter()`` around
        #: the body and calls ``clock(node, seconds)`` once per activation
        #: that returned or whose failure was contained into poison.
        #: None by default, costing one attribute check per execution.
        self._execution_clock: Optional[Callable[[DepNode, float], None]] = None
        #: Number of graph nodes currently caching a Poisoned value — an
        #: optimization gate only (the eager poisoned-input shortcut is
        #: skipped entirely while it is zero); correctness never depends
        #: on it.
        self._poison_live = 0
        #: Stable-id adoption state installed by :meth:`Runtime.recover`
        #: (a :class:`~repro.persist.recover.RestoredState`); None in
        #: runtimes not reconstructed from a checkpoint.  Cleared once
        #: every restored node has been bound or dropped.
        self._restored: Optional[Any] = None
        #: The attached :class:`~repro.persist.wal.PersistenceManager`
        #: (see :meth:`persist_to`), if any.
        self._persist: Optional[Any] = None
        #: :class:`~repro.persist.recover.RecoveryReport` of the recovery
        #: that built this runtime, if any.
        self.last_recovery: Optional[Any] = None
        #: The active ``with rt.batch():`` transaction, if any.
        self._transaction: Optional[Transaction] = None
        #: Set by :meth:`close`; a closed runtime has released every
        #: thread-backed resource it owned.
        self._closed = False
        #: Per-runtime argument tables, keyed by IncrementalProcedure id.
        self._tables: Dict[int, ArgumentTable] = {}
        if resilience is not None:
            self.use_resilience(resilience)

    @property
    def _context(self) -> _Ctx:
        """This thread's execution context (created lazily)."""
        return self._local.ctx

    @property
    def call_stack(self) -> List[_Frame]:
        """This thread's frame stack (Algorithm 5's call stack)."""
        return self._context.stack

    # ------------------------------------------------------------------
    # access / modify  (Algorithms 3 and 4)
    # ------------------------------------------------------------------

    def on_read(self, location: "Location") -> Any:
        """Algorithm 3.  Returns the location's current raw value.

        The value is read *after* node attachment: binding a restored
        storage node (``Runtime.recover`` with ``restore_values``) may
        push the checkpointed value into the location.
        """
        ctx = self._local.ctx
        ctx.stats.accesses += 1
        events = self.events
        if _ACCESS in events.observed:
            events.emit(_ACCESS, location._node)
        if ctx.stack:
            if ctx.unchecked:
                ctx.stats.unchecked_suppressions += 1
                if EventKind.UNCHECKED_SUPPRESSION in events.observed:
                    events.emit(EventKind.UNCHECKED_SUPPRESSION, location._node)
            else:
                frame = ctx.stack[-1]
                node = self._storage_node(location, ctx.stats)
                node.value = location._value
                if not frame.freeze_edges:
                    self.graph.create_edge(node, frame.node)
        return location._value

    def on_modify(self, location: "Location", value: Any) -> None:
        """Algorithm 4.  Stores ``value`` and tracks the change.

        Inside a ``with rt.batch():`` block the store still happens now,
        but change detection is deferred (and coalesced per location) to
        the transaction's commit.
        """
        # "modify(l, v) -> access(l); l := v; ..." — the read side first,
        # so an executing procedure depends on storage it writes.
        self.on_read(location)
        if self._restored is not None and location._node is None:
            # A write to a location whose checkpointed node has not been
            # touched by any read yet: bind it now, so the restored
            # dependents see this change (on_read only attaches nodes
            # under an executing procedure).  The incoming value drives
            # validation: a write that reconstructs the checkpointed
            # value adopts silently and keeps dependents warm.
            self._bind_restored_location(location, incoming=value)
        stats = self._local.ctx.stats
        stats.modifies += 1
        events = self.events
        node = location._node
        if node is not None:
            node.acted_at = self._tick()
        if _MODIFY in events.observed:
            events.emit(_MODIFY, node)
        transaction = self._transaction
        if transaction is not None:
            # Record first: the transaction captures the pre-write stored
            # value as its rollback baseline.
            transaction.record(location)
            location._value = value
            return
        location._value = value
        if node is not None:
            if not values_equal(node.value, value):
                node.value = value
                node.marked_at = node.acted_at  # changed by this write
                stats.changes_detected += 1
                if _CHANGE_DETECTED in events.observed:
                    events.emit(_CHANGE_DETECTED, node)
                self.partitions.mark(node)
            else:
                node.value = value

    def _storage_node(self, location: "Location", stats: RuntimeStats) -> DepNode:
        node = location._node
        if node is None:
            if self._restored is not None:
                node = self._bind_restored_location(location)
                if node is not None:
                    return node
            node = self.graph.new_storage_node(location._label, location, stats)
            location._node = node
        return node

    def _bind_restored_location(
        self, location: "Location", incoming: Any = _UNSET
    ) -> Optional[DepNode]:
        """Adopt the checkpointed storage node matching ``location``'s
        stable id, if one is still unclaimed.

        On a read-path bind, ``restore_values`` mode pushes the
        checkpointed value into the location; otherwise the live value
        is validated against the checkpoint's fingerprint.  On a
        write-path bind (``incoming`` given) the value *being written*
        is validated instead: a fingerprint match means the write
        merely reconstructs the checkpointed value, so the node adopts
        it silently and restored dependents stay warm.  Any mismatch —
        or an unfingerprintable value — conservatively re-marks the
        node so restored dependents recompute rather than trust a
        stale cache.
        """
        restored = self._restored
        entry = restored.take_location(location._sid)
        if entry is None:
            if restored.exhausted():
                self._restored = None
            return None
        node, fp = entry
        node.ref = location
        location._node = node
        from ..persist.ids import fingerprint

        if incoming is not _UNSET:
            live_fp = fingerprint(incoming)
            node.value = location._value
            if fp is not None and live_fp is not None and live_fp == fp:
                # Change detection will compare the incoming value
                # against this and correctly see "no change".
                node.value = incoming
            else:
                self.partitions.mark(node)
        elif restored.restore_values and node.has_value():
            location._value = node.value
        else:
            live_fp = fingerprint(location._value)
            node.value = location._value
            if fp is None or live_fp is None or live_fp != fp:
                self.partitions.mark(node)
        if restored.exhausted():
            self._restored = None
        return node

    # ------------------------------------------------------------------
    # call  (Algorithm 5)
    # ------------------------------------------------------------------

    def call(self, proc: "IncrementalProcedure", args: Tuple[Any, ...]) -> Any:
        """Invoke incremental procedure ``proc`` with ``args``."""
        ctx = self._local.ctx
        stats = ctx.stats
        table = self._table_for(proc)
        node = table.find(args)
        if node is None and self._restored is not None:
            node = self._adopt_restored_instance(proc, args, table)
        if node is None:
            label = procedure_instance_label(proc.name, args)
            node = self.graph.new_procedure_node(
                proc.strategy, label, ref=proc, stats=stats
            )
            node.thunk = functools.partial(proc.fn, *args)
            node.static_edges = proc.static_deps
            # consistent is already False for fresh procedure nodes.
            # Linked to its caller before the table's policy runs, and
            # in one section with it under parallel drains, so no add
            # (this one or another thread's) evicts the entry unlinked.
            with self.partitions.guard():  # evictable() walks succ maps
                self._link_to_caller(node, ctx)
                table.add(args, node)
        else:
            if not ctx.drain_depth:  # else the outer drain continues
                # "ELSE IF SetSize(Inconsistent) > 0 THEN Evaluate(Inconsistent)"
                self._force_evaluation_for(node, stats)
            self._link_to_caller(node, ctx)

        if node.consistent and not (
            # Another drain thread runs a demand node, or a first run:
            # its value is not ready and nothing may re-mark this caller
            # once it commits, so run the body here too (the newest run
            # commits).  A drain re-running an eager node that has a
            # value re-marks this caller if the value it commits changed.
            node.executing
            and (node.kind is NodeKind.DEMAND or not node.has_value())
            and self._running_elsewhere(node, ctx)
        ):
            value = node.value
            if type(value) is Poisoned:
                resil = self._resilience
                if (
                    resil is not None
                    and resil.wants_probe(self, node, value)
                ):
                    # Quarantine poison (the body never ran) whose
                    # breaker is due a half-open probe: fall through to
                    # execution so the probe happens on this demand.
                    node.consistent = False
                elif not node.pred:
                    # The body raised before performing a single tracked
                    # read, so no write can ever re-mark this node — a
                    # cached poison here would be permanent.  Such
                    # zero-read failures (e.g. a transient error in a
                    # prologue) are retried on demand instead.  Nodes
                    # that *did* read anything keep their poison: to
                    # change the outcome the caller must change one of
                    # those inputs, and that write heals the node
                    # through ordinary propagation.
                    node.consistent = False
                else:
                    stats.cache_hits += 1
                    node.hit_at = self._tick()
                    if _CACHE_HIT in self.events.observed:
                        self.events.emit(_CACHE_HIT, node)
                    raise NodeExecutionError(node.label, value)
            elif not node.has_value():
                # Consistent-but-valueless is only possible mid-first-
                # execution: a genuinely cyclic specification (a body
                # calling itself with no intervening state change).
                raise CycleError(node.label)
            else:
                stats.cache_hits += 1
                node.hit_at = self._tick()
                if _CACHE_HIT in self.events.observed:
                    self.events.emit(_CACHE_HIT, node)
                return node.value
        stats.cache_misses += 1
        if _CACHE_MISS in self.events.observed:
            self.events.emit(_CACHE_MISS, node)
        return self.execute_node(node)

    def _link_to_caller(self, node: DepNode, ctx: _Ctx) -> None:
        """CreateEdge from a called ``node`` to the executing caller."""
        if ctx.stack and not ctx.unchecked:
            frame = ctx.stack[-1]
            if not frame.freeze_edges:
                self.graph.create_edge(node, frame.node)

    def _adopt_restored_instance(
        self,
        proc: "IncrementalProcedure",
        args: Tuple[Any, ...],
        table: ArgumentTable,
    ) -> Optional[DepNode]:
        """Adopt the checkpointed node of instance ``proc(*args)``.

        Restored procedure nodes carry cached values and dependency
        edges but no executable body; the first call of the matching
        instance re-attaches the thunk here.  The node kind must match
        the procedure's current strategy — a procedure whose
        DEMAND/EAGER annotation changed since the checkpoint gets a
        fresh node instead (its restored twin stays orphaned, which is
        safe: nothing can mark it).
        """
        restored = self._restored
        from ..persist.ids import instance_sid

        sid = instance_sid(proc.name, args)
        node = restored.take_instance(sid, proc.strategy) if sid else None
        if restored.exhausted():
            self._restored = None
        if node is None:
            return None
        node.thunk = functools.partial(proc.fn, *args)
        node.ref = proc
        node.static_edges = proc.static_deps
        node.edges_frozen = node.edges_frozen and proc.static_deps
        with self.partitions.guard():  # evictable() walks succ maps
            table.add(args, node)
        return node

    def execute_node(self, node: DepNode) -> Any:
        """Run a procedure instance's body and cache the result.

        The tail of Algorithm 5: RemovePredEdges, push, set consistent
        *before* the body, execute, record.  RemovePredEdges is deferred:
        :meth:`DependencyGraph.enter` stashes the in-edges, a re-read
        re-links one in O(1), and :meth:`DependencyGraph.leave` unlinks
        the rest when the body returns or raises, leaving Algorithm 5's
        edges.

        Re-entrancy: an execution may call the *same* instance again if
        intervening writes re-marked it inconsistent — the paper's AVL
        Balance does exactly this (``t := RotateRight(t).balance()``
        re-enters ``balance`` on nodes of the rotated subtree).  That is
        ordinary recursion in the conventional semantics, so we run the
        body again.  Each activation returns its own result to its own
        caller, but only the most recently *started* activation commits
        to the cache: an outer activation that was re-entered computed
        its result from a now-stale view of the store, so letting it
        overwrite the inner activation's value (and dependency edges)
        would poison the cache.  A re-entrant call with *no* intervening
        change is answered from the consistent flag in :meth:`call` and
        never reaches here.  ``strict_cycles`` turns any re-entry into a
        :class:`CycleError`; ``max_reentry`` bounds runaway recursion
        from DET violations.
        """
        ctx = self._local.ctx
        if node.executing and not self._running_elsewhere(node, ctx):
            if self.strict_cycles:
                raise CycleError(node.label)
            if node.executing >= self.max_reentry:
                raise CycleError(
                    f"{node.label} re-entered {node.executing} times"
                )
        assert node.thunk is not None, "procedure node lost its thunk"
        frame = _Frame(node)
        ctx.stack.append(frame)
        events = self.events
        if _EXECUTION_STARTED in events.observed:
            events.emit(_EXECUTION_STARTED, node)
        my_activation = self.graph.enter(node, frame.freeze_edges)
        node.consistent = True
        # An (*UNCHECKED*) region suppresses dependencies of the
        # activation that opened it, not of its callees: a procedure
        # invoked from inside the region is its own incremental instance
        # and must record its own read set, so tracking resumes here.
        saved_unchecked = ctx.unchecked
        ctx.unchecked = 0
        injector = self._fault_injector
        resil = self._resilience
        clock = self._execution_clock
        start = time.perf_counter() if clock is not None else 0.0
        try:
            if resil is not None:
                result = resil.execute(self, node, injector)
            elif injector is not None:
                result = injector.run(node, node.thunk)
            else:
                result = node.thunk()
        except BaseException as exc:
            if node.activation_seq != my_activation:
                # A newer activation already owns the cache entry; this
                # superseded activation just unwinds to its own caller.
                raise
            if (
                self.containment
                and isinstance(exc, Exception)
                and getattr(exc, "containable", True)
            ):
                # Fault containment: capture the failure as this node's
                # cached outcome.  The node stays *consistent* — poison
                # faithfully reflects its current inputs — and the typed
                # wrapper re-raised here is itself containable, so a
                # calling procedure body becomes poisoned in turn with
                # the origin preserved (the eager scheduler absorbs it
                # instead, keeping the drain alive).
                poison = self._poison(node, exc)
                if clock is not None:
                    self._clock_body(clock, node, start)
                raise NodeExecutionError(node.label, poison) from exc
            # Non-containable (engine-control errors, KeyboardInterrupt,
            # containment off): leave no trustworthy cached value.
            node.consistent = False
            # Keep the marking invariant: a node silently becoming
            # inconsistent must wake its dependents, else a later healing
            # write stops propagating here — drain processing sees the
            # flag already False and marks nobody (the deadline-interrupt
            # unwind is the live case: nested nodes tear down this path
            # while only the frame owner is poisoned).
            self.partitions.mark_successors(node)
            raise
        else:
            # Commit before leave() lowers ``executing``: a caller on
            # another drain thread that then finds the node consistent
            # and idle reads this value (see call).
            committed = node.activation_seq == my_activation
            if committed:
                if type(node.value) is Poisoned:
                    self._poison_live -= 1  # healed: success replaces poison
                node.value = result
                if node.static_edges:
                    node.edges_frozen = True
        finally:
            ctx.unchecked = saved_unchecked
            self.graph.leave(node)
            popped = ctx.stack.pop()
            assert popped is frame
        ctx.stats.executions += 1
        node.acted_at = self._tick() if committed else -self._tick()
        if clock is not None:
            self._clock_body(clock, node, start)
        if _EXECUTION in events.observed:
            events.emit(_EXECUTION, node, data=committed)
        return result

    def _clock_body(
        self, clock: Callable[[DepNode, float], None], node: DepNode, start: float
    ) -> None:
        """Hand the execution clock the body's wall time, under the bus
        lock when the bus has one (parallel drains), as handlers run."""
        seconds = time.perf_counter() - start
        lock = self.events.lock
        if lock is None:
            clock(node, seconds)
        else:
            with lock:
                clock(node, seconds)

    def _running_elsewhere(self, node: DepNode, ctx: _Ctx) -> bool:
        """Whether every running activation of ``node`` (one at least)
        belongs to another drain thread: not re-entry, not a cycle."""
        return self._parallel is not None and all(
            frame.node is not node for frame in ctx.stack
        )

    # ------------------------------------------------------------------
    # fault containment
    # ------------------------------------------------------------------

    def _poison(self, node: DepNode, exc: Exception) -> Poisoned:
        """Cache ``exc`` as ``node``'s Poisoned outcome; returns it.

        Poison read through a dependency chain keeps pointing at the
        root cause: containing a :class:`NodeExecutionError` re-uses its
        original error and origin rather than nesting wrappers.
        """
        if isinstance(exc, NodeExecutionError):
            poison = Poisoned(exc.root, exc.origin)
        else:
            poison = Poisoned(exc, node.label)
        self._cache_poison(node, poison)
        return poison

    def _poison_from_input(self, node: DepNode, source: Poisoned) -> None:
        """Poison an eager ``node`` whose input holds ``source`` without
        re-running its body (the scheduler's containment shortcut)."""
        node.consistent = True
        self._cache_poison(node, Poisoned(source.error, source.origin))

    def _cache_poison(self, node: DepNode, poison: Poisoned) -> None:
        """Make ``poison`` the node's value, keeping its stale history."""
        if type(node.value) is not Poisoned:
            self._poison_live += 1
        _retain_stale(poison, node.value)
        node.value = poison
        node.acted_at = self._tick()
        self._context.stats.nodes_poisoned += 1
        if EventKind.NODE_POISONED in self.events.observed:
            data = {"error": type(poison.error).__name__, "origin": poison.origin}
            self.events.emit(EventKind.NODE_POISONED, node, data=data)

    def _force_evaluation_for(self, node: DepNode, stats: RuntimeStats) -> None:
        """Flush the inconsistent set governing ``node``'s partition.

        Partition-local by construction: only the worklist of ``node``'s
        own component is drained — pending changes in other partitions
        stay batched (§6.3).  The loop tolerates the partition growing
        mid-drain (re-execution creating unions).  The dirty registry
        lists every partition with pending work, so while it is empty
        no union-find walk is needed.
        """
        partitions = self.partitions
        forced = False
        while partitions.dirty:
            part = partitions.sched_of(node)
            if not part.incset:
                break
            if not forced:
                forced = True
                if EventKind.FORCED_EVALUATION_STARTED in self.events.observed:
                    self.events.emit(EventKind.FORCED_EVALUATION_STARTED, node)
            if not self.scheduler.drain(part):
                break  # no progress possible here (owned elsewhere/stale)
        if forced:
            stats.forced_evaluations += 1
            if EventKind.FORCED_EVALUATION in self.events.observed:
                self.events.emit(EventKind.FORCED_EVALUATION, node)

    # ------------------------------------------------------------------
    # explicit control
    # ------------------------------------------------------------------

    def flush(self) -> int:
        """Propagate every pending change now (eager "spare cycles" hook).

        The paper: "the evaluation routine should be called whenever
        cycles are available (input/output, etc)".  Returns the number of
        propagation steps performed.
        """
        return self.scheduler.drain_all()

    def idle_tick(self, max_steps: int = 100) -> int:
        """Spend up to ``max_steps`` of propagation work, preemptibly.

        Call this from an event loop or between requests — the paper's
        eager "computation cycles available due to input/output" mode.
        Returns the number of propagation steps performed; 0 means the
        system is fully quiescent (or a drain is already running).
        """
        return self.scheduler.drain_budget(max_steps)

    def pending_changes(self) -> bool:
        """True if any partition has unpropagated changes."""
        return self.partitions.has_pending()

    def close(self) -> None:
        """Release every thread-backed resource this runtime owns.

        Idempotent, and the runtime is a context manager (``with
        Runtime() as rt: ...`` closes on exit).  In order:

        * shuts down the parallel-drain worker pool (if any);
        * detaches the resilience policy and stops its shared
          :class:`~repro.resil.deadline.DeadlineMonitor` daemon (safe
          even for a policy shared across runtimes — the monitor
          restarts lazily if the policy is used again);
        * unlinks the watchdog's policy back-reference;
        * closes the attached persistence manager, which flushes and
          closes the write-ahead log.

        Without this, a long-lived process that churns runtimes (one
        per tenant session, say) leaks a monitor thread per deadline
        policy and an open WAL file handle per persistence manager.
        The runtime's graph stays readable after close — only the
        background machinery is gone — but no further durability or
        deadline enforcement happens.  :meth:`teardown` closes and then
        frees the graph too.
        """
        if self._closed:
            return
        self._closed = True
        if self._parallel is not None:
            self._parallel.close()
        policy = self._resilience
        if policy is not None:
            self.use_resilience(None)
            close = getattr(policy, "close", None)
            if close is not None:
                close()
        if self.watchdog is not None:
            self.watchdog.resilience = None
        manager = self._persist
        if manager is not None:
            manager.close()

    def teardown(self) -> None:
        """Close the runtime and free its graph at once.

        A graph is cyclic by construction (every edge is a mirror pair
        of map entries, a storage node and its location point at each
        other), so a dropped runtime otherwise waits as garbage for a
        full cycle collection.  This disposes of every live node
        (:meth:`DependencyGraph.dispose`), unhooks the partition roots
        and empties the argument tables and the restored state, after
        which reference counting frees the graph as soon as its owner
        lets go.  Unlike :meth:`close`, the graph is gone afterwards:
        call it when nothing will read it again (a served tenant's
        eviction).  Afterwards only the counters (:attr:`stats`), the
        event ring (``obs.flight``) and :attr:`closed` remain to read:
        the scheduler, ``obs`` queries and :attr:`last_recovery` are
        detached, and no runtime-held reference cycle is left for the
        collector.  Idempotent.
        """
        self.close()
        nodes = self.graph.nodes
        items = [node.partition_item for node in nodes]
        for node in nodes:
            self.graph.dispose(node)
        for item in items:
            if item is not None:  # a root points at itself
                item.parent = item.payload = None
        self.partitions.dirty.clear()
        self._tables.clear()
        self._restored = None
        self.last_recovery = None
        self._poison_live = 0
        # The runtime's own back-references, so it is freed by reference
        # counting too (with its event ring, once the ring is let go).
        self.scheduler.runtime = None
        self._parallel = None
        if self._obs is not None:
            self._obs._runtime = None

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    def check_invariants(self, *, raise_on_violation: bool = True) -> List[str]:
        """Audit the runtime's structural invariants (edge symmetry,
        inconsistent-set/flag agreement, quiescent frame stack, every
        neighbour of a live node live).  Returns the violations found;
        raises :class:`~repro.core.errors.IntegrityError` on any when
        ``raise_on_violation`` (the default).  See
        :mod:`repro.core.integrity`.
        """
        from .integrity import audit

        return audit(self, raise_on_violation=raise_on_violation)

    # ------------------------------------------------------------------
    # introspection (see repro.obs)
    # ------------------------------------------------------------------

    @property
    def obs(self):
        """The runtime's introspection facade (:mod:`repro.obs`).

        Created on first access and inert until
        :meth:`~repro.obs.Observability.enable` (or
        :meth:`~repro.obs.Observability.profile`) attaches its
        subscribers, so runtimes that never touch ``obs`` pay nothing on
        the hot path.
        """
        if self._obs is None:
            from ..obs import Observability

            self._obs = Observability(self)
        return self._obs

    def explain(self, target: Any) -> "Any":
        """Why did ``target`` recompute / why is its value what it is?

        ``target`` is a graph node, a tracked location, or a label
        substring.  Returns an :class:`~repro.obs.explain.Explanation` —
        a typed causal chain (write → change-detected → marked →
        re-executed → quiescence-cut) built from the causal stamps the
        kernel keeps on nodes plus the live graph, so nothing needs to
        be recording beforehand.
        """
        return self.obs.explain(target)

    def inspect(self) -> "Any":
        """Snapshot the dependency graph for inspection/diffing.

        Returns a :class:`~repro.obs.inspect.GraphSnapshot` (node kind,
        consistency, height, partition, poison state) exportable as DOT
        or JSON and diffable against a later snapshot.
        """
        return self.obs.inspect()

    # ------------------------------------------------------------------
    # durability (see repro.persist, docs/persistence.md)
    # ------------------------------------------------------------------

    def persist_to(
        self, path: str, *, segment_records: Optional[int] = None
    ) -> Any:
        """Attach a :class:`~repro.persist.wal.PersistenceManager`.

        Every committed write (and batch) from now on is appended to the
        write-ahead log at ``path + ".wal"``; :meth:`checkpoint` rolls
        the log into a snapshot at ``path``.  ``segment_records`` seals
        the log into read-only segment files every N records (see
        :class:`~repro.persist.wal.WriteAheadLog`).  Returns the manager
        (also kept at ``rt._persist``); call its ``close()`` to detach.
        """
        if self._persist is not None:
            raise RuntimeStateError(
                "runtime already has a persistence manager attached"
            )
        from ..persist.wal import PersistenceManager

        manager = PersistenceManager(self, path, segment_records=segment_records)
        self._persist = manager
        return manager

    def checkpoint(
        self, path: Optional[str] = None, *, app_state: Any = None
    ) -> str:
        """Write an atomic snapshot of the dependency graph.

        With a persistence manager attached (:meth:`persist_to`) and no
        conflicting ``path``, checkpoints through the manager — which
        also truncates the WAL the snapshot subsumes.  Standalone,
        writes a one-off snapshot to ``path``.  Requires quiescence
        (no executing procedure, no active drain); returns the path.
        """
        manager = self._persist
        if manager is not None and (path is None or path == manager.path):
            return manager.checkpoint(app_state=app_state)
        if path is None:
            raise RuntimeStateError(
                "checkpoint() needs a path when no persistence manager "
                "is attached"
            )
        from ..persist.snapshot import write_checkpoint

        count = write_checkpoint(self, path, app_state=app_state)
        self._context.stats.checkpoints += 1
        if EventKind.CHECKPOINT in self.events.observed:
            data = {"path": path, "nodes": count}
            self.events.emit(EventKind.CHECKPOINT, None, data=data)
        return path

    @classmethod
    def recover(
        cls,
        path: str,
        *,
        restore_values: bool = False,
        **runtime_kwargs: Any,
    ) -> "Runtime":
        """Reconstruct a runtime from the checkpoint/WAL pair at ``path``.

        Never raises on corruption: any unreadable state degrades to an
        empty runtime that rebuilds exhaustively.  The typed outcome —
        clean / replayed-N / degraded + reason — is the
        :class:`~repro.persist.recover.RecoveryReport` at
        ``rt.last_recovery``.  See :mod:`repro.persist.recover` for the
        deterministic-reconstruction contract and ``restore_values``.
        """
        from ..persist.recover import recover as _recover

        rt, _report = _recover(
            path, restore_values=restore_values, **runtime_kwargs
        )
        return rt

    def batch(self, *, rollback_on_error: bool = False) -> Transaction:
        """Open a batched-write transaction (``with rt.batch(): ...``).

        Writes inside the block apply to storage immediately but defer
        change detection; repeated writes to one location coalesce to
        its final value; commit marks the changed locations and runs at
        most one propagation pass.  Nested ``batch()`` blocks join the
        outermost transaction.  With ``rollback_on_error=True``, an
        exception escaping the block restores every written location to
        its pre-batch value instead of committing the partial burst.
        See :mod:`repro.core.transaction`.
        """
        return Transaction(self, rollback_on_error=rollback_on_error)

    @property
    def in_batch(self) -> bool:
        """True while a ``with rt.batch():`` block is open."""
        return self._transaction is not None

    # ------------------------------------------------------------------
    # resilience (see repro.resil, docs/robustness.md "Failure policy")
    # ------------------------------------------------------------------

    @property
    def resilience(self) -> Optional[Any]:
        """The attached :class:`~repro.resil.ResiliencePolicy`, if any."""
        return self._resilience

    def use_resilience(self, policy: Optional[Any]) -> Optional[Any]:
        """Attach (or with None, detach) a resilience policy.

        With a policy attached, every procedure-body execution runs
        through its retry/breaker/deadline machinery before containment
        can poison the node.  The watchdog attached *at this moment* is
        linked so its trip diagnostics list quarantined procedures;
        returns the policy for chaining.
        """
        self._resilience = policy
        watchdog = self.watchdog
        if watchdog is not None:
            watchdog.resilience = policy
        return policy

    def read(self, target: Any, *, staleness: str = "fresh") -> Any:
        """Read a value with an explicit staleness tolerance.

        ``target`` is a tracked :class:`Location` or a zero-argument
        callable (typically a ``@cached`` procedure or a closure over
        one).  With the default ``staleness="fresh"`` this is an
        ordinary read — poisoned results raise
        :class:`~repro.core.errors.NodeExecutionError`.  With
        :data:`~repro.resil.ALLOW_STALE` (``"allow-stale"``), a poisoned
        result with retained history returns its last-known-good value
        instead (a ``STALE_READ`` event records the degradation); a
        poison with no history still raises.  Use :meth:`read_info` to
        learn *whether* the value served was stale.
        """
        value, _info = self.read_info(target, staleness=staleness)
        return value

    def read_info(
        self, target: Any, *, staleness: str = "fresh"
    ) -> Tuple[Any, Any]:
        """:meth:`read`, returning ``(value, StalenessInfo)``."""
        from ..resil.stale import read_with_info

        return read_with_info(self, target, staleness=staleness)

    @contextlib.contextmanager
    def unchecked(self):
        """Suppress dependency recording (the ``(*UNCHECKED*)`` pragma, §6.4).

        Reads and incremental calls inside the region do not create
        edges; writes are still change-tracked (correctness requires it).
        The programmer asserts, as in the paper, that the suppressed
        dependencies cannot affect maintained results.
        """
        ctx = self._context
        ctx.unchecked += 1
        try:
            yield self
        finally:
            ctx.unchecked -= 1

    @contextlib.contextmanager
    def active(self):
        """Make this the current runtime within the ``with`` block."""
        token = _push_runtime(self)
        try:
            yield self
        finally:
            _pop_runtime(token)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _table_for(self, proc: "IncrementalProcedure") -> ArgumentTable:
        table = self._tables.get(proc.proc_id)
        if table is None:
            table = ArgumentTable(
                proc.name, policy=proc.make_policy(), on_evict=self._dispose_node
            )
            self._tables[proc.proc_id] = table
        return table

    def _dispose_node(self, node: DepNode) -> None:
        """Tear down an evicted cache entry."""
        self.graph.dispose(node)
        if type(node.value) is Poisoned:
            self._poison_live -= 1
        self._context.stats.cache_evictions += 1
        if EventKind.CACHE_EVICTION in self.events.observed:
            self.events.emit(EventKind.CACHE_EVICTION, node)

    def table_size(self, proc: "IncrementalProcedure") -> int:
        """Number of live cache entries for ``proc`` in this runtime."""
        table = self._tables.get(proc.proc_id)
        return len(table) if table is not None else 0

    def node_for(
        self, proc: "IncrementalProcedure", args: Tuple[Any, ...]
    ) -> Optional[DepNode]:
        """The dependency-graph node of instance ``proc(*args)``, if it
        has ever been called in this runtime (debugging/diagnostics)."""
        table = self._tables.get(proc.proc_id)
        return table.find(tuple(args)) if table is not None else None


class Location:
    """Minimal protocol for tracked storage: a raw value, an optional
    dependency-graph node, and a debug label.

    :mod:`repro.core.cells` provides the user-facing containers; this base
    class exists so the runtime, the Alphonse-L interpreter, and tests can
    share one storage representation.

    ``_sid`` is the location's *stable id* for persistence
    (:mod:`repro.persist.ids`): pass ``sid`` when the application knows a
    durable name (the spreadsheet derives one from grid coordinates),
    otherwise a deterministic per-label ordinal is assigned — stable
    across processes exactly when reconstruction is deterministic.
    """

    __slots__ = ("_value", "_node", "_label", "_sid", "__weakref__")

    def __init__(
        self, value: Any = None, label: str = "loc", sid: Optional[str] = None
    ) -> None:
        self._value = value
        self._node: Optional[DepNode] = None
        self._label = label
        self._sid = sid if sid is not None else next_location_sid(label)


class IncrementalProcedure:
    """A ``(*CACHED*)`` procedure or ``(*MAINTAINED*)`` method body.

    Stateless with respect to any particular runtime: the per-runtime
    argument tables live on the runtime, so independent runtimes never
    share cached results.
    """

    _ids = itertools.count()

    def __init__(
        self,
        fn: Callable[..., Any],
        *,
        strategy: NodeKind = NodeKind.DEMAND,
        policy_factory: Optional[Callable[[], CachePolicy]] = None,
        name: Optional[str] = None,
        static_deps: bool = False,
    ) -> None:
        if strategy is NodeKind.STORAGE:
            raise ValueError("strategy must be DEMAND or EAGER")
        self.fn = fn
        self.strategy = strategy
        self.name = name or getattr(fn, "__name__", "proc")
        self.proc_id = next(self._ids)
        self._policy_factory = policy_factory
        #: §6.2 static graph construction: the programmer asserts this
        #: procedure's referenced-argument set is identical on every
        #: execution of a given instance, so its dependency subgraph is
        #: built once and reused (no RemovePredEdges / edge re-creation).
        self.static_deps = static_deps

    def make_policy(self) -> CachePolicy:
        return self._policy_factory() if self._policy_factory else Unbounded()

    def __call__(self, *args: Any) -> Any:
        return get_runtime().call(self, args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<IncrementalProcedure {self.name} [{self.strategy.value}]>"


# ----------------------------------------------------------------------
# Current-runtime management.  A thread-local stack with a process-wide
# default, so simple scripts can use the library without ever creating a
# Runtime explicitly while tests get full isolation via ``rt.active()``.
#
# Module-global audit (the partition tie-break counter used to live at
# module scope too; it is per-PartitionManager now).  What remains here
# is deliberate and concurrency-safe:
#
# * ``_tls`` / ``_default_runtime`` / ``_default_lock`` — the
#   current-runtime mechanism itself: per-thread activation stacks over
#   one lock-guarded process default.
# * ``_UNSET`` — an immutable sentinel.
# * ``IncrementalProcedure._ids`` and ``node._node_ids`` — id sequences
#   that must be process-wide (procedure identity spans runtimes;
#   ``itertools.count`` increments atomically under the GIL).
# ----------------------------------------------------------------------

class _Activations(threading.local):
    """This thread's stack of runtimes made active by ``rt.active()``."""

    def __init__(self) -> None:
        self.stack: List[Runtime] = []


_tls = _Activations()
_default_runtime: Optional[Runtime] = None
_default_lock = threading.Lock()


def _push_runtime(rt: Runtime) -> int:
    stack = _tls.stack
    stack.append(rt)
    return len(stack)


def _pop_runtime(token: int) -> None:
    stack = _tls.stack
    if len(stack) != token or not stack:
        raise RuntimeStateError("runtime activation stack corrupted")
    stack.pop()


def get_runtime() -> Runtime:
    """The innermost active runtime, or the shared process default."""
    stack = _tls.stack
    if stack:
        return stack[-1]
    global _default_runtime
    if _default_runtime is None:
        with _default_lock:
            if _default_runtime is None:
                _default_runtime = Runtime()
    return _default_runtime


def reset_default_runtime() -> Runtime:
    """Replace the process-default runtime with a fresh one (tests)."""
    global _default_runtime
    with _default_lock:
        _default_runtime = Runtime()
        return _default_runtime
