"""The event↔counter contract shared by the counting tests.

The kernel increments each ``RuntimeStats`` counter at the site that
does the work and announces the work with an event when the kind is
observed.  :data:`COUNTER_FOR` names the event behind each counter, and
:func:`tally` rebuilds the counters from the event stream alone, so a
test can check that the two agree.
"""

import collections

from repro.core.events import EventKind
from repro.core.node import NodeKind

#: The kinds that map one-to-one onto a counter: the counter grows by
#: the event's ``amount``.
COUNTER_FOR = {
    EventKind.EDGE_ADDED: "edges_created",
    EventKind.EDGE_REMOVED: "edges_removed",
    EventKind.ORDER_SHIFTED: "order_shifts",
    EventKind.ACCESS: "accesses",
    EventKind.MODIFY: "modifies",
    EventKind.CHANGE_DETECTED: "changes_detected",
    EventKind.INCONSISTENT_MARKED: "inconsistent_marks",
    EventKind.EXECUTION: "executions",
    EventKind.CACHE_HIT: "cache_hits",
    EventKind.CACHE_MISS: "cache_misses",
    EventKind.CACHE_EVICTION: "cache_evictions",
    EventKind.PROPAGATION_STEP: "propagation_steps",
    EventKind.EAGER_REEXECUTION: "eager_reexecutions",
    EventKind.QUIESCENCE_CUT: "quiescent_stops",
    EventKind.FORCED_EVALUATION: "forced_evaluations",
    EventKind.UNCHECKED_SUPPRESSION: "unchecked_suppressions",
    EventKind.PARTITION_UNION: "partition_unions",
    EventKind.PARTITION_FIND: "partition_finds",
    EventKind.NODE_POISONED: "nodes_poisoned",
    EventKind.ROLLBACK: "rollbacks",
    EventKind.WATCHDOG_TRIPPED: "watchdog_trips",
    EventKind.RETRY: "retries",
    EventKind.BREAKER_STATE: "breaker_transitions",
    EventKind.DEADLINE_EXCEEDED: "deadlines_exceeded",
    EventKind.STALE_READ: "stale_reads",
    EventKind.WAL_APPEND: "wal_records",
    EventKind.CHECKPOINT: "checkpoints",
    EventKind.RECOVERY: "recoveries",
}

#: The four kinds that count otherwise, and the counters they feed:
#: DRAIN and DRAIN_ABORTED count passes (their ``amount`` is a step
#: count), NODE_CREATED splits by node kind, and BATCH_COMMIT also adds
#: its ``writes`` and ``coalesced``.
SPECIAL_COUNTERS = {
    EventKind.DRAIN: ("drains",),
    EventKind.DRAIN_ABORTED: ("drains_aborted",),
    EventKind.NODE_CREATED: ("storage_nodes_created", "procedure_nodes_created"),
    EventKind.BATCH_COMMIT: (
        "batch_commits",
        "batch_writes",
        "batch_writes_coalesced",
    ),
}

#: Every kind that announces a counter increment.
COUNTED_KINDS = frozenset(COUNTER_FOR) | frozenset(SPECIAL_COUNTERS)

#: Span-boundary kinds: the paired end event carries the count.
SPAN_OPEN_KINDS = frozenset(
    {
        EventKind.EXECUTION_STARTED,  # counted by EXECUTION
        EventKind.DRAIN_STARTED,  # counted by DRAIN / DRAIN_ABORTED
        EventKind.BATCH_STARTED,  # counted by BATCH_COMMIT / ROLLBACK
        EventKind.FORCED_EVALUATION_STARTED,  # counted by FORCED_EVALUATION
    }
)


def tally(events):
    """Subscribe to every kind on ``events``; returns a Counter, keyed by
    counter name, that the event stream alone keeps up to date."""
    counts = collections.Counter()

    def record(kind, node, amount, data):
        name = COUNTER_FOR.get(kind)
        if name is not None:
            counts[name] += amount
        elif kind is EventKind.NODE_CREATED:
            if node.kind is NodeKind.STORAGE:
                counts["storage_nodes_created"] += amount
            else:
                counts["procedure_nodes_created"] += amount
        elif kind is EventKind.DRAIN:
            counts["drains"] += 1
        elif kind is EventKind.DRAIN_ABORTED:
            counts["drains_aborted"] += 1
        elif kind is EventKind.BATCH_COMMIT:
            counts["batch_commits"] += amount
            counts["batch_writes"] += data["writes"]
            counts["batch_writes_coalesced"] += data["coalesced"]

    events.subscribe_all(record)
    return counts
