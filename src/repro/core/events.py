"""Typed runtime events — the observability layer of the engine.

The paper's introduction promises that "the dependency information
maintained by Alphonse programs enables a host of other benefits
including eager evaluation, sophisticated debugging, and parallel
execution".  This module is the channel those benefits flow through: the
storage/graph kernel, the scheduler, and the transaction layer announce
what they do on an :class:`EventBus`, and every consumer — the event
ring (:class:`repro.obs.flight.FlightRecorder`) whose views answer
"where did the time go" and "what happened before it broke", the
metrics collector — is just a subscriber.  Operation counters and the
causal stamps behind "why did this recompute" are not: the kernel
increments each :class:`~repro.core.stats.RuntimeStats` counter, and
writes each stamp on its node, at the site that does the work, exactly
even under ``parallel_drains``.

Design constraints:

* **Unobserved means free.**  :attr:`EventBus.observed` holds the kinds
  that have a handler; per-operation sites skip ``emit`` for any other
  kind, so a runtime nobody observes emits no per-operation event.
* **Hot-path cheap.**  ``emit`` allocates nothing: events are
  dispatched as four positional arguments ``(kind, node, amount,
  data)`` rather than event objects.
* **Typed.**  Event kinds are members of :class:`EventKind`; subscribers
  register per kind (or for all kinds) and are dispatched from a plain
  dict.
"""

from __future__ import annotations

import enum
import threading
from typing import Any, Callable, Dict, List, Optional, Set

__all__ = ["EventKind", "EventBus", "Handler"]


class EventKind(enum.Enum):
    """Everything the engine can announce.

    The ``node`` argument of a handler is the :class:`~repro.core.node.DepNode`
    the event concerns (None where no node applies); ``amount`` batches
    homogeneous occurrences (e.g. several edges removed at once);
    ``data`` carries kind-specific payload, documented per member.
    """

    #: A dependency-graph node was created (storage or procedure).
    NODE_CREATED = "node-created"
    #: An edge src -> dst was attached; ``node`` is src, ``data`` is dst.
    EDGE_ADDED = "edge-added"
    #: ``amount`` in-/out-edges of ``node`` were detached.
    EDGE_REMOVED = "edge-removed"
    #: An edge insertion raised height labels (``amount`` slow-path
    #: inserts; ``node`` is the edge's destination).
    ORDER_SHIFTED = "order-shifted"

    #: A tracked read (Algorithm 3); ``node`` may be None if the
    #: location has no graph node yet.
    ACCESS = "access"
    #: A tracked write (Algorithm 4), before change detection.
    MODIFY = "modify"
    #: A write's new value differed from the cached one (§4.4).
    CHANGE_DETECTED = "change-detected"
    #: ``node`` entered its partition's inconsistent set.
    INCONSISTENT_MARKED = "inconsistent-marked"

    #: A procedure body is about to execute (the span-open mate of
    #: :attr:`EXECUTION`; a body that raises emits no EXECUTION, so span
    #: consumers must recover from an unmatched start).
    EXECUTION_STARTED = "execution-started"
    #: A procedure body finished executing; ``data`` is True if the
    #: activation committed its result to the cache (see
    #: ``Runtime.execute_node`` on re-entrancy), False otherwise.
    EXECUTION = "execution"
    #: A call answered from a consistent cached value.
    CACHE_HIT = "cache-hit"
    #: A call found an existing but inconsistent node.
    CACHE_MISS = "cache-miss"
    #: A bounded replacement policy discarded a cache entry.
    CACHE_EVICTION = "cache-eviction"

    #: One node processed during quiescence propagation (§4.5).
    PROPAGATION_STEP = "propagation-step"
    #: An eager node re-executed during propagation.
    EAGER_REEXECUTION = "eager-reexecution"
    #: An eager re-execution reproduced the cached value, cutting
    #: propagation along that path ("quiescence", §2).
    QUIESCENCE_CUT = "quiescence-cut"
    #: An incremental call is about to flush pending changes (the
    #: span-open mate of :attr:`FORCED_EVALUATION`).
    FORCED_EVALUATION_STARTED = "forced-evaluation-started"
    #: An incremental call preempted execution to flush pending changes
    #: (Algorithm 5's Evaluate call).
    FORCED_EVALUATION = "forced-evaluation"
    #: A scheduler drain is starting; ``amount`` is the number of nodes
    #: pending in the inconsistent set(s) about to be drained (the
    #: span-open mate of :attr:`DRAIN` / :attr:`DRAIN_ABORTED`).  For a
    #: single-partition drain ``data`` is ``{"partition": pid}``; a
    #: budgeted multi-partition pass carries no partition.
    DRAIN_STARTED = "drain-started"
    #: A top-level scheduler drain completed; ``amount`` is the number
    #: of propagation steps it performed; ``data`` carries the partition
    #: id as in :attr:`DRAIN_STARTED`.
    DRAIN = "drain"
    #: A drain was torn down by an escaping exception; ``node`` is the
    #: node in flight (re-marked pending, None if selection itself
    #: failed), ``amount`` the steps completed before the abort, and
    #: ``data`` the exception class name.
    DRAIN_ABORTED = "drain-aborted"

    #: A procedure body raised a containable exception and its node now
    #: caches a :class:`~repro.core.node.Poisoned` value; ``data`` is a
    #: dict with ``error`` (exception class name) and ``origin`` (label
    #: of the root-cause node — differs from ``node`` when poison
    #: propagated from an input).
    NODE_POISONED = "node-poisoned"

    #: A read/call inside an ``unchecked()`` region skipped edge
    #: creation (§6.4).
    UNCHECKED_SUPPRESSION = "unchecked-suppression"

    #: An outermost ``with rt.batch():`` block opened (the span-open
    #: mate of :attr:`BATCH_COMMIT` / :attr:`ROLLBACK`).
    BATCH_STARTED = "batch-started"
    #: A ``with rt.batch():`` block committed; ``data`` is a dict with
    #: ``writes`` (distinct locations written) and ``coalesced``
    #: (repeated writes absorbed into their location's final value).
    BATCH_COMMIT = "batch-commit"
    #: A ``with rt.batch(rollback_on_error=True):`` block raised and
    #: restored every written location to its pre-batch value; ``data``
    #: is a dict with ``restored`` (locations rewound) and ``marked``
    #: (locations whose mid-batch value had leaked to a reader and were
    #: conservatively re-marked inconsistent).
    ROLLBACK = "rollback"

    #: A union-find union/find was performed (§6.3 bookkeeping).
    PARTITION_UNION = "partition-union"
    PARTITION_FIND = "partition-find"

    #: A :class:`~repro.core.watchdog.Watchdog` budget tripped; ``node``
    #: is the node being processed when the budget was exceeded and
    #: ``data`` a dict with ``budget`` (which budget: "steps",
    #: "wall-time", "livelock") and ``hot`` (the hot-node report).  The
    #: matching :attr:`DRAIN_ABORTED` follows as the drain unwinds.
    WATCHDOG_TRIPPED = "watchdog-tripped"

    #: A checkpoint snapshot was written (``rt.checkpoint(path)`` /
    #: ``PersistenceManager.checkpoint``); ``node`` is None, ``data`` a
    #: dict with ``path`` and ``nodes`` (graph nodes persisted).
    CHECKPOINT = "checkpoint"
    #: One record was appended to the write-ahead log; ``node`` is None,
    #: ``data`` a dict with ``kind`` ("write", "batch", or "app").
    WAL_APPEND = "wal-append"
    #: A runtime was reconstructed from durable state
    #: (``Runtime.recover``); ``node`` is None, ``data`` the
    #: :class:`~repro.persist.recover.RecoveryReport` as a dict.
    RECOVERY = "recovery"

    #: The resilience layer is re-running a failed procedure body
    #: (:mod:`repro.resil`); ``data`` is a dict with ``attempt`` (the
    #: 1-based attempt that just failed), ``error`` (exception class
    #: name), and ``delay`` (backoff seconds before the re-run).
    RETRY = "retry"
    #: A per-procedure circuit breaker changed state; ``data`` is a dict
    #: with ``procedure`` and the ``from``/``to`` states (``closed`` /
    #: ``open`` / ``half-open``).
    BREAKER_STATE = "breaker-state"
    #: A procedure body overran its configured ``deadline_seconds``;
    #: ``data`` is a dict with ``deadline_seconds`` and ``elapsed``.
    #: The containable ``DeadlineExceeded`` poisoning follows.
    DEADLINE_EXCEEDED = "deadline-exceeded"
    #: A degraded read (``rt.read(..., staleness=ALLOW_STALE)``) served
    #: a poisoned node's last-known-good value; ``node`` is None,
    #: ``data`` a dict with ``label``, ``origin``, and ``age_seconds``.
    STALE_READ = "stale-read"

    # ``EventBus.emit`` looks handlers up in a dict keyed by member, and
    # ``Enum.__hash__`` is a Python-level function.  Members are
    # singletons compared by identity (Enum defines no ``__eq__``), so
    # the C identity hash agrees with equality and skips that call.
    __hash__ = object.__hash__


#: Subscriber signature: ``handler(kind, node, amount, data)``.
Handler = Callable[[EventKind, Any, int, Any], None]


class EventBus:
    """Per-runtime synchronous publish/subscribe dispatcher.

    Handlers subscribed to a specific kind run before handlers
    subscribed to all kinds; within each group, in subscription order.
    Dispatch is synchronous and unguarded: a raising handler propagates
    to the emitting operation, exactly like the hand-written counter
    updates it replaces.

    Threading: a bus is single-threaded by default (one ``is None``
    check on the hot path).  :meth:`use_lock` — called by
    ``Runtime(parallel_drains=N)`` — serializes whole emits under a
    re-entrant lock so handlers with internal state (the event ring,
    metrics, the WAL) see events one at a time even when disjoint
    partitions drain concurrently.  The lock is re-entrant because
    handlers may themselves emit (the WAL announces its appends).
    """

    __slots__ = ("_by_kind", "_all", "_lock", "observed")

    def __init__(self) -> None:
        self._by_kind: Dict[EventKind, List[Handler]] = {}
        self._all: List[Handler] = []
        self._lock: Optional[threading.RLock] = None
        #: Kinds with at least one handler (every kind while a
        #: subscribe-all handler is attached); updated in place.
        self.observed: Set[EventKind] = set()

    def use_lock(self) -> None:
        """Serialize emits under an RLock (parallel-drain mode)."""
        if self._lock is None:
            self._lock = threading.RLock()

    @property
    def lock(self) -> Optional[threading.RLock]:
        """The emit lock (None on a single-threaded bus): code that feeds
        a handler's state outside :meth:`emit` holds it as handlers do."""
        return self._lock

    # -- subscription ----------------------------------------------------

    def subscribe(self, kind: EventKind, handler: Handler) -> Handler:
        """Invoke ``handler`` for every event of ``kind``; returns it."""
        self._by_kind.setdefault(kind, []).append(handler)
        self.observed.add(kind)
        return handler

    def unsubscribe(self, kind: EventKind, handler: Handler) -> None:
        """Remove one prior subscription (no-op if absent)."""
        handlers = self._by_kind.get(kind)
        if handlers is not None:
            try:
                handlers.remove(handler)
            except ValueError:
                pass
            if not handlers:
                del self._by_kind[kind]
                if not self._all:
                    self.observed.discard(kind)

    def subscribe_all(self, handler: Handler) -> Handler:
        """Invoke ``handler`` for every event of every kind."""
        self._all.append(handler)
        self.observed.update(EventKind)
        return handler

    def unsubscribe_all(self, handler: Handler) -> None:
        try:
            self._all.remove(handler)
        except ValueError:
            return
        if not self._all:
            self.observed.intersection_update(self._by_kind)

    def subscriber_count(self, kind: Optional[EventKind] = None) -> int:
        """Number of handlers that would see an event of ``kind``
        (or only the subscribe-all handlers when ``kind`` is None)."""
        if kind is None:
            return len(self._all)
        return len(self._by_kind.get(kind, ())) + len(self._all)

    # -- dispatch --------------------------------------------------------

    def emit(
        self,
        kind: EventKind,
        node: Any = None,
        amount: int = 1,
        data: Any = None,
    ) -> None:
        """Announce one event.  Mutating subscriptions for ``kind`` from
        inside a handler of that same kind is not supported."""
        lock = self._lock
        if lock is None:
            handlers = self._by_kind.get(kind)
            if handlers is not None:
                for handler in handlers:
                    handler(kind, node, amount, data)
            if self._all:
                for handler in self._all:
                    handler(kind, node, amount, data)
            return
        with lock:
            handlers = self._by_kind.get(kind)
            if handlers is not None:
                for handler in handlers:
                    handler(kind, node, amount, data)
            if self._all:
                for handler in self._all:
                    handler(kind, node, amount, data)
