"""Serve-layer instrumentation over one shared metrics registry.

The server owns a single :class:`~repro.obs.metrics.MetricsRegistry`.
Every tenant session's :class:`~repro.obs.metrics.RuntimeMetrics`
collector is constructed against it, so the engine-level series
aggregate across tenants: a kernel counter reads each live runtime's
``rt.stats`` at scrape plus what closed sessions folded in, and the
clocked series (histograms, ``alphonse_executions_total``) are shared
instruments.  This module adds the serve layer's own series on top, and
one ``/metrics`` scrape exposes both.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from ..obs.metrics import TIME_BUCKETS, MetricsRegistry

__all__ = ["GcPauses", "ServeMetrics"]


class GcPauses:
    """Cycle-collector pauses by generation, as
    ``serve_gc_pause_seconds::gen0|1|2`` histograms: a ``gc.callbacks``
    hook (the :class:`~repro.serve.server.Server` installs it), so a
    latency spike caused by a full collection shows as one."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.histograms = tuple(
            registry.histogram(
                f"serve_gc_pause_seconds::gen{generation}",
                f"cycle-collector pauses of generation {generation}",
                TIME_BUCKETS,
            )
            for generation in range(3)
        )
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, Any]) -> None:
        # Collections never overlap (they hold the interpreter lock).
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.histograms[info["generation"]].observe(
                time.perf_counter() - self._started
            )


class ServeMetrics:
    """The serve layer's counters/gauges on a (usually shared) registry."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self.requests = reg.counter(
            "serve_requests_total", "session operations completed successfully"
        )
        self.rejections = reg.counter(
            "serve_rejections_total",
            "requests turned away by admission control (429)",
        )
        self.errors = reg.counter(
            "serve_errors_total", "session operations that failed (4xx/5xx)"
        )
        self.evictions = reg.counter(
            "serve_evictions_total",
            "idle sessions taken out of the live set to make room "
            "(each then checkpoints and closes on its worker)",
        )
        self.resurrections = reg.counter(
            "serve_resurrections_total",
            "sessions reopened from their on-disk checkpoint",
        )
        self.sessions_created = reg.counter(
            "serve_sessions_created_total", "sessions opened fresh (no disk state)"
        )
        self.sessions_live = reg.gauge(
            "serve_sessions_live", "sessions currently resident in memory"
        )
        self.request_seconds = reg.histogram(
            "serve_request_seconds",
            "wall time per session operation, admission to response",
            TIME_BUCKETS,
        )
        # SLO burn accounting (per-op breakdown lives in the
        # SloTracker; these aggregate series feed alerting).
        self.slo_observations = reg.counter(
            "serve_slo_observations_total",
            "requests measured against a latency objective",
        )
        self.slo_breaches = reg.counter(
            "serve_slo_breaches_total",
            "requests that overran their op's latency objective",
        )
        # Replication (primary ships, standby applies; one registry may
        # host either role, so both sets register unconditionally).
        self.repl_records_shipped = reg.counter(
            "serve_replication_records_shipped_total",
            "stream records handed to replica links",
        )
        self.repl_records_acked = reg.counter(
            "serve_replication_records_acked_total",
            "stream records acknowledged by a standby",
        )
        self.repl_records_applied = reg.counter(
            "serve_replication_records_applied_total",
            "stream records applied to the local replica (standby role)",
        )
        self.repl_resyncs = reg.counter(
            "serve_replication_resyncs_total",
            "full-session resync frames delivered",
        )
        self.repl_gaps = reg.counter(
            "serve_replication_gaps_total",
            "shipped records refused for LSN gap or CRC failure",
        )
        self.repl_link_failures = reg.counter(
            "serve_replication_link_failures_total",
            "replica link deliveries abandoned after retries",
        )
        self.repl_lag = reg.gauge(
            "serve_replication_lag_records",
            "records shipped (or queued) but not yet acknowledged",
        )
        self.promotions = reg.counter(
            "serve_promotions_total",
            "standby-to-primary promotions completed",
        )
        self.gc_pauses = GcPauses(reg)

    def counters(self) -> dict:
        """The four headline serve counters (the E17 regression gate)."""
        return {
            "requests_served": self.requests.value,
            "rejections": self.rejections.value,
            "evictions": self.evictions.value,
            "resurrections": self.resurrections.value,
        }
