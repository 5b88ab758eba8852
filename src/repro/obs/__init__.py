"""Introspection suite for the Alphonse runtime.

The engine counts its own operations (``rt.stats``, incremented in the
kernel and exact under ``parallel_drains``) and does not emit a kind no
handler observes, so an unobserved runtime pays no emit at all.

One facade (``rt.obs``, built lazily on first access) owns two bus
consumers.  :class:`~repro.obs.flight.FlightRecorder` is the one event
ring, and two tools are views that read it when asked: the flight view
(incidents and notes) and :class:`~repro.obs.spans.SpanTracer` (span
trees batch → drain → execute → force, as JSONL or Chrome
``trace_event``).  :class:`~repro.obs.metrics.RuntimeMetrics` keeps
counters, gauges and fixed-bucket histograms with JSON snapshots and
Prometheus text.  Two tools read the graph itself:
:func:`~repro.obs.explain.explain` (why a node recomputed: write →
change-detected → marked → re-executed → quiescence-cut, from the causal
stamps the kernel keeps on nodes, so it needs no recording) and
:class:`~repro.obs.inspect.GraphSnapshot` (DOT / JSON, before/after
diffing).

Typical use::

    rt = Runtime()
    rt.obs.enable()            # record spans, count metrics
    ... workload ...
    print(rt.explain("total"))         # causal chain
    print(rt.obs.metrics.registry.to_prometheus())
    rt.obs.tracer.write_chrome("trace.json")
    rt.inspect().write("graph.dot")
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict

from . import spans as _spans
from .explain import CausalLink, Explanation, explain
from .flight import WIDE_CAPACITY, FlightRecorder
from .inspect import GraphSnapshot, SnapshotDiff
from .metrics import (
    SIZE_BUCKETS,
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RuntimeMetrics,
)
from .spans import Span, SpanTracer
from .trace import TraceContext, current_trace, mint_trace_id, trace_scope

__all__ = [
    "CausalLink",
    "Counter",
    "Explanation",
    "FlightRecorder",
    "Gauge",
    "GraphSnapshot",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "RuntimeMetrics",
    "SIZE_BUCKETS",
    "Span",
    "SpanTracer",
    "SnapshotDiff",
    "TIME_BUCKETS",
    "TraceContext",
    "WIDE_CAPACITY",
    "current_trace",
    "explain",
    "mint_trace_id",
    "trace_scope",
]


class Observability:
    """Per-runtime facade over the introspection tools (``rt.obs``).

    Constructing it is free: the ring and the metrics collector exist
    but subscribe to nothing until :meth:`enable` (or the
    :meth:`profile` context manager) attaches them.
    """

    def __init__(self, runtime: Any) -> None:
        self._runtime = runtime
        self.metrics = RuntimeMetrics()
        #: The runtime's one event ring; replace it before :meth:`enable`
        #: to choose its capacity or own kinds.
        self.flight = FlightRecorder()
        self._enabled = False
        #: Explain ignores causal stamps older than this (see :meth:`clear`).
        self._since = 1

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def tracer(self) -> SpanTracer:
        """The span-tree view of the ring."""
        return SpanTracer(self.flight)

    def enable(
        self,
        *,
        spans: bool = True,
        metrics: bool = True,
        flight: bool = False,
    ) -> "Observability":
        """Attach the metrics collector and widen what the ring watches.

        ``spans`` adds the kinds span trees fold (which widens the ring
        to :data:`~repro.obs.flight.WIDE_CAPACITY` records); ``flight``
        adds the ring's own incident kinds — opt-in here, always on for
        serve-layer sessions.  Explain needs neither: it reads the
        stamps the kernel keeps on nodes.  Idempotent: a kind already
        watched is not subscribed twice.
        """
        bus = self._runtime.events
        if metrics and self.metrics._runtime is None:
            self.metrics.attach(self._runtime)
        kinds = set()
        if spans:
            kinds |= _spans.KINDS
        if flight:
            kinds |= self.flight.kinds
        if kinds:
            self.flight.watch(bus, kinds)
        self._enabled = True
        return self

    def disable(self) -> None:
        """Detach every consumer (recorded data is kept)."""
        self.metrics.detach()
        self.flight.detach()
        self._enabled = False

    def clear(self) -> None:
        """Drop the ring's records and make explain forget every causal
        stamp written so far (metrics keep counting from their current
        values — counters are monotonic)."""
        self.flight.clear()
        self._since = self._runtime._tick()

    @contextmanager
    def profile(self):
        """Observe just one region::

            with rt.obs.profile() as obs:
                workload(rt)
            print(obs.metrics.procedure_table())
        """
        was_enabled = self._enabled
        self.enable()
        try:
            yield self
        finally:
            if not was_enabled:
                self.disable()

    # -- queries ---------------------------------------------------------

    def explain(self, target: Any) -> Explanation:
        """Causal chain for a node / tracked location / label; see
        :func:`repro.obs.explain.explain`."""
        return explain(self._runtime, target, self._since)

    def inspect(self) -> GraphSnapshot:
        """Snapshot the dependency graph (no events emitted)."""
        return GraphSnapshot.capture(self._runtime)

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-able dict: metrics + runtime stats + span and
        record counts."""
        out: Dict[str, Any] = {"metrics": self.metrics.snapshot()}
        stats = getattr(self._runtime, "stats", None)
        if stats is not None:
            out["stats"] = stats.snapshot()
        out["spans"] = len(self.tracer)
        out["records"] = len(self.flight)
        return out
