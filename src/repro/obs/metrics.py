"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Two layers:

* a **generic registry** (:class:`MetricsRegistry`) with the three
  classic instrument types, a JSON-able :meth:`~MetricsRegistry.snapshot`
  and a Prometheus text exposition (:meth:`~MetricsRegistry.to_prometheus`);
* a **runtime collector** (:class:`RuntimeMetrics`) wiring the standard
  engine metrics: the kernel's counters (``rt.stats``), read at scrape,
  per-procedure execution wall time from the kernel's execution clock,
  and the drain histograms fed from the event bus (inconsistent-set
  size and propagation steps per drain and per detected change).

Histogram buckets are *fixed at construction* (and the standard buckets
are module constants), so bucket edges are identical across runs and
processes — snapshots from two CI runs diff cell-for-cell.

Concurrent emitters: a registry may be shared by collectors running on
several threads (the serve layer aggregates every session's
:class:`RuntimeMetrics` into one registry).  Registration and the two
read surfaces (:meth:`MetricsRegistry.snapshot`,
:meth:`MetricsRegistry.to_prometheus`) take the registry lock and copy
each instrument's state before rendering, so a scrape landing mid-drain
never sees a half-registered instrument or a torn histogram (bucket
counts that disagree with the advertised total).  Updates take no
registry lock: one runtime's handlers and execution clock run one at a
time (under its bus lock with ``parallel_drains``), but two runtimes
feeding a shared registry can race a ``+=`` and under-count
``alphonse_executions_total`` or a histogram by a tick, which
Prometheus-style monotonic scraping tolerates; a read never tears.

Zero-subscriber cost: nothing here touches the engine until
:meth:`RuntimeMetrics.attach`.  The kernel counts its own operations
(``rt.stats``, exact under ``parallel_drains``), does not emit a kind
no handler observes, and reads no clock while no execution clock is
installed, so an unattached runtime pays nothing here.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, List, Optional, Tuple

from ..core.events import EventKind

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RuntimeMetrics",
    "SIZE_BUCKETS",
    "TIME_BUCKETS",
]

#: Power-of-two edges for set sizes / step counts (upper bounds; the
#: implicit +Inf bucket catches the rest).
SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384,
)

#: Decade edges for wall-clock seconds, 1µs .. 10s.
TIME_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)

class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class StatsCounter(Counter):
    """A counter the kernel keeps: one ``RuntimeStats`` field summed
    over the attached runtimes' ``rt.stats``, plus what detached ones
    folded in under the lock a read takes, so it never falls."""

    __slots__ = ("field", "_live", "_folded", "_lock")

    def __init__(self, name: str, help: str, field: str) -> None:
        self.name, self.help, self.field = name, help, field
        self._live: Dict[int, Any] = {}
        self._folded = 0
        self._lock = threading.Lock()

    @property
    def value(self) -> int:  # type: ignore[override]
        with self._lock:
            live = (getattr(s, self.field) for s in self._live.values())
            return self._folded + sum(live)

    def add(self, stats: Any, folded: int) -> None:
        """Read ``stats`` live; ``folded`` of it was folded in before."""
        with self._lock:
            self._folded -= folded
            self._live[id(stats)] = stats

    def fold(self, stats: Any) -> int:
        with self._lock:
            del self._live[id(stats)]
            value = getattr(stats, self.field)
            self._folded += value
        return value


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram (cumulative counts, Prometheus-style).

    ``buckets`` are inclusive upper bounds; an implicit +Inf bucket
    holds everything beyond the last edge.  Edges are frozen at
    construction so two histograms built from the same constant always
    have identical shapes.
    """

    __slots__ = ("name", "help", "buckets", "counts", "total", "sum")

    def __init__(
        self, name: str, help: str = "", buckets: Tuple[float, ...] = SIZE_BUCKETS
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.name = name
        self.help = help
        self.buckets: Tuple[float, ...] = tuple(buckets)
        #: Per-bucket (non-cumulative) observation counts; index
        #: len(buckets) is the +Inf bucket.
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.total = 0
        self.sum: float = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def snapshot(self) -> Dict[str, Any]:
        # Copy the buckets first and derive the total from the copy:
        # a concurrent observe() between reading counts and total would
        # otherwise produce a snapshot whose buckets don't sum to its
        # advertised count — the torn-histogram read.
        counts = list(self.counts)
        return {
            "type": "histogram",
            "buckets": list(self.buckets),
            "counts": counts,
            "count": sum(counts),
            "sum": self.sum,
        }


class MetricsRegistry:
    """Named instruments with one snapshot / exposition surface.

    Registration is idempotent per ``(name, type)`` — re-registering
    returns the existing instrument — which is also how several
    :class:`RuntimeMetrics` collectors sharing one registry aggregate
    into the same counters.  Registration and the read surfaces are
    guarded by one lock so a scrape is safe while other threads emit
    and register.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def _register(self, metric: Any) -> Any:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if type(existing) is not type(metric):
                    raise ValueError(
                        f"metric {metric.name!r} already registered as "
                        f"{type(existing).__name__}"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge(name, help))

    def histogram(
        self, name: str, help: str = "", buckets: Tuple[float, ...] = SIZE_BUCKETS
    ) -> Histogram:
        return self._register(Histogram(name, help, buckets))

    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def _sorted_items(self) -> List[Tuple[str, Any]]:
        """A consistent copy of the instrument table for iteration.

        Taken under the lock so a concurrent ``_register`` can never
        resize the dict mid-scrape.
        """
        with self._lock:
            return sorted(self._metrics.items())

    def snapshot(self) -> Dict[str, Any]:
        """All instruments as one JSON-able dict, sorted by name."""
        return {
            name: metric.snapshot() for name, metric in self._sorted_items()
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4).

        Safe under concurrent emitters: each histogram is rendered from
        one copied snapshot of its buckets, so the cumulative series,
        the ``+Inf`` bucket, and ``_count`` always agree even when
        observations land mid-scrape.
        """
        lines: List[str] = []
        for name, metric in self._sorted_items():
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            if isinstance(metric, Counter):
                lines.append(f"# TYPE {name} counter")
                lines.append(f"{name} {_num(metric.value)}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {_num(metric.value)}")
            else:
                lines.append(f"# TYPE {name} histogram")
                counts = list(metric.counts)
                total = sum(counts)
                cumulative = 0
                for edge, count in zip(metric.buckets, counts):
                    cumulative += count
                    lines.append(
                        f'{name}_bucket{{le="{_num(edge)}"}} {cumulative}'
                    )
                lines.append(f'{name}_bucket{{le="+Inf"}} {total}')
                lines.append(f"{name}_sum {_num(metric.sum)}")
                lines.append(f"{name}_count {total}")
        return "\n".join(lines) + ("\n" if lines else "")


def _num(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


#: The kernel's counters as series: ``RuntimeStats`` field, name, help.
STATS_SERIES = (
    ("cache_hits", "alphonse_cache_hits_total", "calls answered from cache"),
    ("cache_misses", "alphonse_cache_misses_total", "calls that found a stale node"),
    ("changes_detected", "alphonse_changes_detected_total", "writes that changed a value"),
    ("checkpoints", "alphonse_checkpoints_total", "checkpoint snapshots written"),
    ("wal_records", "alphonse_wal_records_total", "write-ahead-log records appended"),
    ("recoveries", "alphonse_recoveries_total", "runtimes reconstructed from disk"),
    ("retries", "alphonse_retries_total",
     "failed body runs re-executed by the resilience layer"),
    ("breaker_transitions", "alphonse_breaker_transitions_total",
     "circuit-breaker state changes"),
    ("deadlines_exceeded", "alphonse_deadlines_exceeded_total",
     "procedure bodies that overran their deadline"),
    ("stale_reads", "alphonse_stale_reads_total",
     "degraded reads served from a last-known-good value"),
)

#: Cap on distinct per-partition drain counters: a long-lived runtime
#: churning partitions would otherwise grow the registry without bound;
#: drains beyond the cap fall into one overflow series.
_PARTITION_SERIES = 64


class RuntimeMetrics:
    """The standard engine metrics: kernel counters, clocked histograms.

    Attach to a runtime (``rt.obs.enable()`` does this) and read
    ``snapshot()`` at any point::

        metrics = RuntimeMetrics().attach(rt)
        ... workload ...
        print(metrics.registry.to_prometheus())

    The :data:`STATS_SERIES` counters read ``rt.stats``, so they count
    from the runtime's construction.  Per-procedure execution time is
    kept in per-name histograms (``alphonse_execution_seconds::<proc>``)
    fed by the execution clock :meth:`attach` installs on the runtime:
    the kernel times each body that returned or whose failure was
    contained into poison, and no event carries it.  The drain
    histograms subscribe to the three drain kinds.
    """

    #: Kinds this collector subscribes to: the drain histograms'.
    KINDS = frozenset({
        EventKind.DRAIN_STARTED, EventKind.DRAIN, EventKind.DRAIN_ABORTED,
    })

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._runtime: Any = None
        reg = self.registry
        self.drain_set_size = reg.histogram(
            "alphonse_drain_inconsistent_set_size",
            "pending nodes at drain start",
            SIZE_BUCKETS,
        )
        self.drain_steps = reg.histogram(
            "alphonse_propagation_steps_per_drain",
            "propagation steps per completed drain",
            SIZE_BUCKETS,
        )
        self.steps_per_change = reg.histogram(
            "alphonse_propagation_steps_per_change",
            "propagation steps per detected change (per drain)",
            SIZE_BUCKETS,
        )
        self.executions = reg.counter(
            "alphonse_executions_total", "procedure bodies run"
        )
        self.stats_counters = {
            field: reg._register(StatsCounter(name, help, field))
            for field, name, help in STATS_SERIES
        }
        self.cache_hits = self.stats_counters["cache_hits"]
        self.cache_misses = self.stats_counters["cache_misses"]
        #: ``(rt.stats, {field: count})`` the last detach folded in.
        self._folded: Tuple[Any, Dict[str, int]] = (None, {})
        #: ``changes_detected`` at the last drain, steps_per_change's base.
        self._changes_at_drain = 0
        #: Per-procedure-name time histograms.
        self._per_proc: Dict[str, Histogram] = {}
        #: Per-partition drain counters (capped; see _PARTITION_SERIES).
        self._per_partition: Dict[int, Counter] = {}

    # -- subscription lifecycle -----------------------------------------

    def attach(self, runtime: Any) -> "RuntimeMetrics":
        """Read ``runtime``'s counters, subscribe to the drain kinds and
        install the execution clock (a runtime has one: the collector
        attached last times its bodies)."""
        if self._runtime is not None:
            raise RuntimeError("RuntimeMetrics is already attached")
        stats = runtime.stats
        source, folded = self._folded  # a re-attach takes it back out
        for field, counter in self.stats_counters.items():
            counter.add(stats, folded[field] if source is stats else 0)
        self._changes_at_drain = stats.changes_detected
        for kind in self.KINDS:
            runtime.events.subscribe(kind, self._handle)
        runtime._execution_clock = self._time_execution
        self._runtime = runtime
        return self

    def detach(self) -> None:
        runtime = self._runtime
        if runtime is None:
            return
        for kind in self.KINDS:
            runtime.events.unsubscribe(kind, self._handle)
        if runtime._execution_clock == self._time_execution:  # not another's
            runtime._execution_clock = None
        self._runtime = None
        stats = runtime.stats
        self._folded = (stats, {
            field: c.fold(stats) for field, c in self.stats_counters.items()
        })

    # -- event handling --------------------------------------------------

    def _time_execution(self, node: Any, seconds: float) -> None:
        """The execution clock: one body activation, ``seconds`` long."""
        self.executions.inc()
        name = node.ref.name
        histogram = self._per_proc.get(name)
        if histogram is None:
            histogram = self.registry.histogram(
                f"alphonse_execution_seconds::{name}",
                f"body wall time of {name}",
                TIME_BUCKETS,
            )
            self._per_proc[name] = histogram
        histogram.observe(seconds)

    def _handle(self, kind: EventKind, node: Any, amount: int, data: Any) -> None:
        if kind is EventKind.DRAIN_STARTED:
            self.drain_set_size.observe(amount)
        else:  # DRAIN or DRAIN_ABORTED
            self.drain_steps.observe(amount)
            if isinstance(data, dict) and "partition" in data:
                self._count_partition_drain(data["partition"])
            changes = self._runtime.stats.changes_detected
            if changes > self._changes_at_drain:
                self.steps_per_change.observe(
                    amount / (changes - self._changes_at_drain)
                )
            self._changes_at_drain = changes

    def _count_partition_drain(self, pid: Any) -> None:
        counter = self._per_partition.get(pid)
        if counter is None:
            if len(self._per_partition) >= _PARTITION_SERIES:
                pid = "overflow"
                counter = self._per_partition.get(pid)
            if counter is None:
                counter = self.registry.counter(
                    f"alphonse_partition_drains_total::p{pid}",
                    f"drains completed for partition p{pid}",
                )
                self._per_partition[pid] = counter
        counter.inc()

    # -- derived views ---------------------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        """Hits / (hits + misses), 0.0 before any call."""
        hits = self.cache_hits.value
        total = hits + self.cache_misses.value
        return hits / total if total else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """Registry snapshot plus the derived cache-hit-rate gauge."""
        snap = self.registry.snapshot()
        snap["alphonse_cache_hit_rate"] = {
            "type": "gauge",
            "value": self.cache_hit_rate,
        }
        return snap

    def procedure_table(self) -> List[Tuple[str, int, float, float]]:
        """Per-procedure ``(name, calls, total_s, mean_s)``, slowest first."""
        rows = [
            (name, h.total, h.sum, h.mean)
            for name, h in self._per_proc.items()
        ]
        rows.sort(key=lambda row: row[2], reverse=True)
        return rows
