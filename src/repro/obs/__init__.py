"""Introspection suite for the Alphonse runtime.

Everything here is an :class:`~repro.core.events.EventBus` consumer.
The engine counts its own operations (``rt.stats``, incremented in the
kernel and exact under ``parallel_drains``) and does not emit a kind no
handler observes, so an unobserved runtime pays no emit at all.

Four tools, one facade (``rt.obs``, built lazily on first access):

* :class:`~repro.obs.spans.SpanTracer` — folds the event stream into a
  nested, timed span tree (batch → drain → execute → force) exportable
  as JSONL or Chrome ``trace_event`` format;
* :class:`~repro.obs.metrics.RuntimeMetrics` — counters, gauges, and
  fixed-bucket histograms for the standard engine metrics, with JSON
  snapshots and Prometheus text exposition;
* :func:`~repro.obs.explain.explain` — a causal chain answering *why*
  a node recomputed (write → change-detected → marked → re-executed →
  quiescence-cut), fed by an :class:`~repro.obs.explain.ExplainRecorder`;
* :class:`~repro.obs.inspect.GraphSnapshot` — the dependency graph as
  DOT / JSON, with before/after diffing.

Typical use::

    rt = Runtime()
    rt.obs.enable()            # start tracing, metrics, and recording
    ... workload ...
    print(rt.explain("total"))         # causal chain
    print(rt.obs.metrics.registry.to_prometheus())
    rt.obs.tracer.write_chrome("trace.json")
    rt.inspect().write("graph.dot")
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict

from .explain import CausalLink, Explanation, ExplainRecorder, explain
from .flight import FlightRecorder
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
    "ExplainRecorder",
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
    "current_trace",
    "explain",
    "mint_trace_id",
    "trace_scope",
]


class Observability:
    """Per-runtime facade over the introspection tools (``rt.obs``).

    Constructing it is free: the tracer, metrics collector, and explain
    recorder exist but subscribe to nothing until :meth:`enable` (or the
    :meth:`profile` context manager) attaches them.
    """

    def __init__(self, runtime: Any) -> None:
        self._runtime = runtime
        self.tracer = SpanTracer()
        self.metrics = RuntimeMetrics()
        self.recorder = ExplainRecorder()
        self.flight = FlightRecorder()
        self._enabled = False

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(
        self,
        *,
        spans: bool = True,
        metrics: bool = True,
        explain: bool = True,
        flight: bool = False,
    ) -> "Observability":
        """Attach the selected consumers to the runtime's event bus.

        Idempotent per consumer; re-enabling an attached facade is a
        no-op for the parts already running.  ``flight`` attaches the
        bounded :class:`~repro.obs.flight.FlightRecorder` — opt-in here,
        always-on for serve-layer sessions.
        """
        bus = self._runtime.events
        if spans and self.tracer._bus is None:
            self.tracer.attach(bus)
        if metrics and self.metrics._bus is None:
            self.metrics.attach(bus)
        if explain and self.recorder._bus is None:
            self.recorder.attach(bus)
        if flight and self.flight._bus is None:
            self.flight.attach(bus)
        self._enabled = True
        return self

    def disable(self) -> None:
        """Detach every consumer (recorded data is kept)."""
        self.tracer.detach()
        self.metrics.detach()
        self.recorder.detach()
        self.flight.detach()
        self._enabled = False

    def clear(self) -> None:
        """Drop recorded spans and causal records (metrics keep counting
        from their current values — counters are monotonic)."""
        self.tracer.clear()
        self.recorder.clear()

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
        recorder = self.recorder if len(self.recorder) else None
        return explain(self._runtime, target, recorder)

    def inspect(self) -> GraphSnapshot:
        """Snapshot the dependency graph (no events emitted)."""
        return GraphSnapshot.capture(self._runtime)

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-able dict: metrics + runtime stats + span count."""
        out: Dict[str, Any] = {"metrics": self.metrics.snapshot()}
        stats = getattr(self._runtime, "stats", None)
        if stats is not None:
            out["stats"] = stats.snapshot()
        out["spans"] = len(self.tracer)
        out["records"] = len(self.recorder)
        return out
