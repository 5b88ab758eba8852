"""Batched writes — the transaction layer of the engine.

The paper's §3.4 cost claim for trees is that "changes to many pointers
... are batched by the evaluation algorithm and result in O(|AFFECTED|)
computations".  In the pre-layered engine that batching was an *implicit
pattern*: perform all writes, then query.  This module makes it a
first-class API::

    with rt.batch():
        for node in targets:
            node.left = subtree      # writes apply, propagation waits

    root.height()                    # one propagation serves the batch

Inside a ``with rt.batch():`` block:

* Writes store to the underlying location immediately (later reads in
  the block see them), but change detection and inconsistent-set
  marking are deferred to commit.
* Repeated writes to one location are **coalesced**: only the final
  value is compared against the location's pre-batch cached value, so a
  write cycle A → B → A detects *no* change at all.
* Commit performs change detection per distinct location, marks the
  changed ones, and triggers one independent propagation drain per
  *touched partition* (§6.3) — regardless of how many writes the block
  performed.  Pending work in partitions the batch never wrote stays
  batched; under ``Runtime(parallel_drains=N)`` the touched partitions
  drain concurrently.

Caveats (documented, not enforced): derived values *read* inside the
block may be stale with respect to the block's own writes, since
invalidation happens only at commit; batches are meant to wrap bursts
of input changes, not incremental procedure bodies.  If the block
raises, storage keeps the values written so far, so commit still
reconciles graph nodes and marks changes (correctness), but skips the
propagation drain (the exception wins).

``rt.batch(rollback_on_error=True)`` upgrades the exception path to a
**transactional rollback**: every written location is restored to its
pre-batch stored value, so a partially-applied burst of updates never
leaks into the incremental state.  The baseline each location rolls
back to is captured at its *first* write of the batch (coalescing makes
later writes free).  Rollback is conservative about visibility — a
location whose mid-batch value may have reached a reader (a tracked
read inside the block, or a node created during the batch) is re-marked
inconsistent after restoration and one drain re-settles its dependents.

Nesting is flattening: an inner ``rt.batch()`` joins the outer
transaction, and everything commits when the outermost block exits.
The rollback guarantee is a property of the *outermost* batch: an inner
``rt.batch(rollback_on_error=True)`` cannot retroactively add rollback
to an outer batch that started without it, and raises
:class:`~repro.core.errors.RuntimeStateError` instead of silently
weakening the requested guarantee.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from .errors import RuntimeStateError
from .events import EventKind
from .node import values_equal

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Location, Runtime

__all__ = ["Transaction"]

#: Baseline marker for "location had no graph node when first written in
#: this batch" — distinct from NO_VALUE, which is a legal node state.
_NO_NODE = object()


def _drain_partitions(rt: "Runtime", parts: list) -> int:
    """One independent drain per partition the commit/rollback touched.

    Partition-local semantics (§6.3): only the components the batch
    actually changed propagate now — pending work in unrelated
    partitions stays batched for *their* next call or flush.  With
    ``Runtime(parallel_drains=N)`` and several touched partitions, the
    drains run concurrently on the executor; serially each partition
    drains in turn.  A partition absorbed by a union mid-wave simply
    comes up empty.
    """
    parts = [p for p in parts if p.incset]
    if not parts:
        return 0
    executor = rt._parallel
    if executor is not None and len(parts) > 1:
        return executor.drain_parts(parts)
    total = 0
    for part in parts:
        total += rt.scheduler.drain(part)
    return total


class Transaction:
    """One ``with rt.batch():`` scope: deferred, coalesced change tracking.

    Created by :meth:`Runtime.batch`.  While installed as the runtime's
    active transaction, ``Runtime.on_modify`` routes every tracked write
    here via :meth:`record` instead of marking the inconsistent set.
    """

    def __init__(
        self, runtime: "Runtime", *, rollback_on_error: bool = False
    ) -> None:
        self.runtime = runtime
        self.rollback_on_error = rollback_on_error
        #: id(location) -> (location, baseline cached node value at first
        #: write, stored value immediately before the first write).
        self._writes: Dict[int, Tuple["Location", Any, Any]] = {}
        #: Repeated writes absorbed into an already-recorded location.
        self.coalesced = 0
        self._parent: Optional[Transaction] = None
        self._committed = False

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "Transaction":
        rt = self.runtime
        self._parent = rt._transaction
        if self._parent is not None:
            if self.rollback_on_error and not self._parent.rollback_on_error:
                self._parent = None
                raise RuntimeStateError(
                    "cannot nest batch(rollback_on_error=True) inside a "
                    "batch without rollback: the outer batch's earlier "
                    "writes could not be rewound"
                )
            return self._parent  # nested batch: join the outer transaction
        rt._transaction = self
        rt.events.emit(EventKind.BATCH_STARTED, None)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self._parent is not None:
            self._parent = None
            return  # the outer batch owns the commit
        self.runtime._transaction = None
        if exc_type is not None and self.rollback_on_error:
            self.rollback()
        else:
            self.commit(drain=exc_type is None)

    # -- write tracking --------------------------------------------------

    def record(self, location: "Location") -> None:
        """Note an impending write to ``location`` (called *before* the
        store, so the pre-write value is still readable).

        The first write captures two baselines: the graph node's cached
        value — what every consistent dependent computed from, which the
        commit-time change check compares against — and the stored value
        itself, which :meth:`rollback` restores.  Later writes to the
        same location coalesce into the existing entry — commit only
        ever looks at the location's final value.
        """
        key = id(location)
        if key in self._writes:
            self.coalesced += 1
            return
        node = location._node
        baseline = node.value if node is not None else _NO_NODE
        self._writes[key] = (location, baseline, location._value)

    def __len__(self) -> int:
        """Distinct locations written so far."""
        return len(self._writes)

    # -- commit ----------------------------------------------------------

    def commit(self, drain: bool = True) -> int:
        """Run deferred change detection; returns locations marked changed.

        For each distinct written location with a dependency-graph node,
        the final stored value is compared against the baseline with the
        same identity-then-equality guard as an unbatched write.  A
        location whose node was only created *during* the batch (by a
        tracked read between writes) is conservatively marked changed:
        its readers may have seen an intermediate value.  When ``drain``
        is true and anything was marked, one global propagation pass
        runs — eager dependents re-execute now, demand dependents are
        invalidated for their next call.
        """
        if self._committed:
            return 0
        self._committed = True
        rt = self.runtime
        stats = rt._context.stats
        events = rt.events
        changed = 0
        touched: Dict[int, Any] = {}
        for location, baseline, _prior in self._writes.values():
            node = location._node
            if node is None:
                continue  # never read by any procedure: no dependents
            final = location._value
            node.value = final
            if baseline is _NO_NODE or not values_equal(baseline, final):
                changed += 1
                node.marked_at = rt._tick()
                stats.changes_detected += 1
                if EventKind.CHANGE_DETECTED in events.observed:
                    events.emit(EventKind.CHANGE_DETECTED, node)
                part = rt.partitions.mark(node)
                touched[part.pid] = part
        stats.batch_commits += 1
        stats.batch_writes += len(self._writes)
        stats.batch_writes_coalesced += self.coalesced
        events.emit(
            EventKind.BATCH_COMMIT,
            None,
            data={
                "writes": len(self._writes),
                "coalesced": self.coalesced,
                "partitions": sorted(touched),
            },
        )
        if drain and changed:
            _drain_partitions(rt, list(touched.values()))
        return changed

    # -- rollback ---------------------------------------------------------

    def rollback(self) -> int:
        """Restore every written location to its pre-batch stored value.

        Returns the number of locations restored.  Restoration alone is
        enough for locations whose mid-batch values stayed private to
        the batch.  Two leaks require conservative re-marking:

        * the location's graph node cached a mid-batch value (a tracked
          read inside the block refreshed ``node.value``), or
        * the node was created *during* the batch, so its very first
          cached value is a mid-batch one.

        Those nodes get their stored (restored) value re-cached and are
        marked inconsistent; one drain then re-settles any dependents
        that computed from the leaked value.
        """
        if self._committed:
            return 0
        self._committed = True
        rt = self.runtime
        restored = 0
        marked = 0
        touched: Dict[int, Any] = {}
        # Restoration is atomic across partitions: every location is
        # rewound before any partition drains, so no drain can observe a
        # half-rolled-back store even when the batch spanned components.
        for location, baseline, prior in self._writes.values():
            location._value = prior
            restored += 1
            node = location._node
            if node is None:
                continue  # no reader ever saw any value of this location
            leaked = (
                baseline is _NO_NODE  # node born mid-batch
                or not values_equal(node.value, baseline)
            )
            if leaked:
                node.value = prior
                marked += 1
                part = rt.partitions.mark(node)
                touched[part.pid] = part
        rt._context.stats.rollbacks += 1
        rt.events.emit(
            EventKind.ROLLBACK,
            None,
            data={"restored": restored, "marked": marked},
        )
        if marked:
            _drain_partitions(rt, list(touched.values()))
        return restored
