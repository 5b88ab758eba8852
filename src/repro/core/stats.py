"""Operation counters for the incremental runtime.

Section 9 of the paper analyzes Alphonse in terms of abstract operation
counts (graph nodes and edges created, procedure executions, propagation
steps) rather than machine time.  This module is the measurement
substrate the benchmark harness asserts complexity *shapes* on: counters
are machine-independent, so "repeat queries are O(1)" or "a change costs
O(height)" can be checked deterministically.

Counters are incremented in the kernel, by the site that does the work,
before it emits the matching event (if any handler observes that kind).
They are exact under ``Runtime(parallel_drains=N)``: edge, order and
union-find counters change only under the partition manager's lock, and
a drain thread bumps every other counter in a private
:class:`RuntimeStats` that the parallel executor adds into ``rt.stats``
after the drain wave.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict


@dataclass(slots=True)
class RuntimeStats:
    """Counters incremented by the runtime as it works.

    All counters are cumulative since construction or the last
    :meth:`reset`.  :meth:`snapshot`/:meth:`delta` support measuring a
    single operation's cost.  Slotted: a misspelled counter raises.
    """

    #: Dependency-graph nodes created, by cause.
    storage_nodes_created: int = 0
    procedure_nodes_created: int = 0

    #: Edge lifecycle (Section 9.2 charges removal cost to creation).
    edges_created: int = 0
    edges_removed: int = 0

    #: Incremental procedure body executions (the expensive events that
    #: incrementality exists to avoid).
    executions: int = 0
    #: Calls satisfied from a consistent cached value (Algorithm 5's
    #: "IF consistent(n) THEN RETURN value(n)").
    cache_hits: int = 0
    #: Calls that found an existing but inconsistent node.
    cache_misses: int = 0
    #: Cache entries discarded by a bounded replacement policy.
    cache_evictions: int = 0

    #: Tracked reads/writes (the access/modify operations of Section 5).
    accesses: int = 0
    modifies: int = 0
    #: Writes whose new value differed from the cached one and therefore
    #: entered the inconsistent set (Section 4.4).
    changes_detected: int = 0

    #: Quiescence-propagation work (Section 4.5).
    propagation_steps: int = 0
    eager_reexecutions: int = 0
    #: Eager re-executions whose result equalled the cached value, halting
    #: propagation along that path ("quiescence").
    quiescent_stops: int = 0
    #: Times a call to an Alphonse procedure preempted execution to flush
    #: the inconsistent set (Algorithm 5's Evaluate call).
    forced_evaluations: int = 0

    #: Topological-order maintenance work (edge insertions that raised
    #: height labels).
    order_shifts: int = 0

    #: Union-find operations for graph partitioning (Section 6.3).
    partition_unions: int = 0
    partition_finds: int = 0

    #: Dependency edges suppressed inside unchecked() regions (§6.4).
    unchecked_suppressions: int = 0

    #: Nodes newly added to a partition's inconsistent set (a superset
    #: of changes_detected: propagation marking counts too).
    inconsistent_marks: int = 0

    #: Completed top-level scheduler drains that performed >= 1 step.
    drains: int = 0
    #: Drains torn down by an escaping exception (watchdog trip, strict
    #: cycle, KeyboardInterrupt); pending work is re-marked, not lost.
    drains_aborted: int = 0

    #: Procedure bodies whose containable failure was captured into a
    #: Poisoned cached value instead of aborting propagation.
    nodes_poisoned: int = 0

    #: ``rt.batch(rollback_on_error=True)`` blocks that raised and had
    #: their writes rewound to the pre-batch values.
    rollbacks: int = 0

    #: ``with rt.batch():`` commits, the distinct locations those
    #: commits wrote, and repeated same-location writes coalesced into a
    #: single change check.
    batch_commits: int = 0
    batch_writes: int = 0
    batch_writes_coalesced: int = 0

    #: Watchdog budgets tripped (each precedes a drain abort).
    watchdog_trips: int = 0

    #: Failed body runs re-executed by the resilience layer
    #: (:mod:`repro.resil`) before containment could poison them.
    retries: int = 0
    #: Circuit-breaker state changes (closed/open/half-open edges).
    breaker_transitions: int = 0
    #: Procedure bodies that overran their configured deadline.
    deadlines_exceeded: int = 0
    #: Degraded reads that served a poisoned node's last-known-good
    #: value (``rt.read(..., staleness=ALLOW_STALE)``).
    stale_reads: int = 0

    #: Durability work (:mod:`repro.persist`): WAL records appended,
    #: checkpoints written, and recoveries that built this runtime.
    wal_records: int = 0
    checkpoints: int = 0
    recoveries: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        for f in fields(self):
            setattr(self, f.name, 0)

    def absorb(self, other: "RuntimeStats") -> None:
        """Add ``other``'s counts into these and zero ``other``."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        other.reset()

    def snapshot(self) -> Dict[str, int]:
        """Return a copy of all counters as a plain dict."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def delta(self, before: Dict[str, int]) -> Dict[str, int]:
        """Counter increases since ``before`` (a prior :meth:`snapshot`)."""
        return {
            name: now - before.get(name, 0)
            for name, now in self.snapshot().items()
        }

    @property
    def live_edges(self) -> int:
        """Edges currently attached to the graph."""
        return self.edges_created - self.edges_removed

    def summary(self) -> str:
        """A compact multi-line report, for examples and debugging."""
        snap = self.snapshot()
        width = max(len(name) for name in snap)
        lines = [f"{name:<{width}}  {value}" for name, value in snap.items() if value]
        return "\n".join(lines) if lines else "(no operations recorded)"
