"""Serve-side observability: request contexts, SLO burn, stitching.

This module is the serve layer's half of the :mod:`repro.obs.flight` /
:mod:`repro.obs.trace` pair:

* :class:`ServeTelemetry` owns the **server's** ring (each session's
  ring is its tenant runtime's ``rt.obs.flight``), mints one
  :class:`~repro.obs.trace.TraceContext` per protocol request, measures
  every request against its op's latency objective, and stitches the
  server/dispatch/session/drain records into one Chrome trace;
* :class:`SloTracker` is the burn ledger behind the enriched
  ``/healthz``: per-op request/breach counts against the objectives
  configured in :class:`~repro.serve.config.ServeConfig`.

Everything here is called from the asyncio loop thread except
``flight.note`` (worker threads note the dispatch hop), which the
recorder's design makes safe without locks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from ..obs.flight import FlightRecorder
from ..obs.trace import TraceContext, mint_trace_id
from .config import ServeConfig
from .metrics import ServeMetrics

__all__ = ["ServeTelemetry", "SloTracker"]


class SloTracker:
    """Per-op latency-objective accounting (loop-thread only).

    ``observe(op, seconds)`` compares one request against the op's
    objective and returns whether it breached; :meth:`status` renders
    the ledger the way ``/healthz`` reports it: per-op breach ratios
    against the error budget, plus a *burn rate* (ratio ÷ budget, so
    1.0 means the budget is exactly spent).
    """

    def __init__(
        self,
        default_ms: float = 250.0,
        overrides: Optional[Mapping[str, float]] = None,
        error_budget: float = 0.01,
    ) -> None:
        if default_ms <= 0:
            raise ValueError("SLO objective must be positive")
        self.default_seconds = default_ms / 1000.0
        self.overrides = {
            op: ms / 1000.0 for op, ms in (overrides or {}).items()
        }
        self.error_budget = error_budget
        #: op -> [observations, breaches]
        self._ops: Dict[str, List[int]] = {}

    def objective_seconds(self, op: str) -> float:
        return self.overrides.get(op, self.default_seconds)

    def observe(self, op: str, seconds: float) -> bool:
        """Count one request; True when it overran the op's objective."""
        row = self._ops.setdefault(op, [0, 0])
        row[0] += 1
        breached = seconds > self.objective_seconds(op)
        if breached:
            row[1] += 1
        return breached

    def _burn(self, ratio: float) -> float:
        if self.error_budget > 0:
            return round(ratio / self.error_budget, 4)
        return 0.0 if ratio == 0 else float("inf")

    def status(self) -> Dict[str, Any]:
        """The ledger as ``/healthz`` reports it."""
        ops: Dict[str, Any] = {}
        total = breaches = 0
        for op in sorted(self._ops):
            seen, breached = self._ops[op]
            ratio = breached / seen
            ops[op] = {
                "objective_ms": round(self.objective_seconds(op) * 1000, 3),
                "requests": seen,
                "breaches": breached,
                "burn": self._burn(ratio),
                "ok": ratio <= self.error_budget,
            }
            total += seen
            breaches += breached
        ratio = breaches / total if total else 0.0
        return {
            "error_budget": self.error_budget,
            "requests": total,
            "breaches": breaches,
            "burn": self._burn(ratio),
            "ok": all(row["ok"] for row in ops.values()),
            "ops": ops,
        }


class ServeTelemetry:
    """The server's request-scoped observability surface."""

    def __init__(self, config: ServeConfig, metrics: ServeMetrics) -> None:
        self.config = config
        self.metrics = metrics
        #: The server's own recorder: request/dispatch notes, always on.
        self.flight = FlightRecorder(config.flight_capacity)
        self.slo = SloTracker(
            config.slo_ms, config.slo_overrides, config.slo_error_budget
        )

    # -- per-request lifecycle -----------------------------------------

    def begin(self, request: Any) -> TraceContext:
        """Mint the trace context for one protocol request.

        ``trace_id`` is always server-minted (it names the journey);
        ``request_id`` echoes the client's correlation ``id`` when it
        sent one, else it is minted too, so every error response can
        carry an id the client can quote back.
        """
        rid = session = op = None
        if isinstance(request, dict):
            rid = request.get("id")
            session = request.get("session")
            op = request.get("op")
        return TraceContext(
            request_id=str(rid) if rid is not None else mint_trace_id(),
            session=session if isinstance(session, str) else None,
            op=op if isinstance(op, str) else None,
        )

    def finish(self, ctx: TraceContext, elapsed: float, code: int) -> None:
        """Account one completed request (success or error).

        Must run inside the request's ``trace_scope`` so the flight
        note tags itself with the ids.
        """
        label = ctx.op or "?"
        if ctx.session is not None:
            label = f"{label} {ctx.session}"
        self.flight.note(
            "request", label, data={"code": code}, duration=elapsed
        )
        if ctx.op is not None:
            self.metrics.slo_observations.inc()
            if self.slo.observe(ctx.op, elapsed):
                self.metrics.slo_breaches.inc()

    # -- stitching ------------------------------------------------------

    def stitched_chrome(self, sessions: Mapping[str, Any]) -> Dict[str, Any]:
        """One Chrome trace across every layer.

        ``pid 0`` is the server (request + dispatch notes from its
        ring); each live session gets its own pid holding its ring's
        flight view plus the drain/execute spans folded from the same
        ring (laned by real thread id).  Every event carries the originating request's
        ``trace_id`` in ``args``, which is what makes one request's
        server-accept → dispatch-hop → session-op → drain journey
        followable in ``chrome://tracing``.
        """
        events = self.flight.chrome_events(pid=0, tid="server")
        for pid, sid in enumerate(sorted(sessions), start=1):
            session = sessions[sid]
            flight = getattr(session, "flight", None)
            if flight is not None:
                events.extend(
                    flight.chrome_events(pid=pid, tid=f"{sid}/flight")
                )
            tracer = session.runtime.obs.tracer
            for event in tracer.to_chrome()["traceEvents"]:
                event["pid"] = pid
                events.append(event)
        events.sort(key=lambda e: e["ts"])
        return {"traceEvents": events, "displayTimeUnit": "ms"}
