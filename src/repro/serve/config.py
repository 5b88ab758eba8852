"""Configuration of the serve layer (one dataclass, sensible defaults)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = ["ServeConfig"]


@dataclass
class ServeConfig:
    """Everything a :class:`~repro.serve.server.Server` needs to know.

    Per-session knobs (``rows``/``cols``, watchdog budgets, deadline)
    apply to every tenant runtime the server creates or resurrects;
    admission and residency knobs bound the server as a whole.
    """

    #: Directory holding one subdirectory of durable state per session.
    root: str = "serve-state"
    #: Sheet dimensions for sessions created fresh.
    rows: int = 8
    cols: int = 8

    # -- residency -----------------------------------------------------
    #: Sessions kept live in memory.  A cold session opens at once; when
    #: its request completes, the least-recently-used idle session
    #: beyond this is checkpointed to disk and closed on its own worker,
    #: behind the reply.  So at most one more than this is live, plus
    #: busy sessions (in-flight requests), which are never evicted: the
    #: live set may transiently overflow rather than block admission.
    max_live_sessions: int = 64

    # -- admission -----------------------------------------------------
    #: In-flight requests tolerated per session before admission control
    #: answers 429; the mailbox is per-tenant so one hot session cannot
    #: starve the rest.
    mailbox_limit: int = 16
    #: The ``retry_after`` hint (seconds) sent with a 429.
    retry_after: float = 0.02

    # -- execution -----------------------------------------------------
    #: Worker threads; sessions are pinned to workers by id hash.
    workers: int = 4
    #: Per-session watchdog budget (propagation steps per drain);
    #: ``None`` runs without a watchdog.
    watchdog_max_steps: Optional[int] = 200_000
    #: Per-session execution deadline (seconds per procedure body);
    #: ``None`` disables the resilience policy entirely.
    deadline_seconds: Optional[float] = None
    #: Per-session ``parallel_drains`` for the tenant runtime.
    parallel_drains: Optional[int] = None

    # -- observability -------------------------------------------------
    #: Record span boundaries in each session's ring too, widening it
    #: to 100,000 records, so per-request drain/execute spans carry the
    #: request's trace ids into one stitched Chrome timeline.  The
    #: ``explain`` op needs no recording: it reads the causal stamps
    #: the kernel keeps on every tenant's graph.
    trace: bool = False
    #: Size of the server's ring, of each session ring without trace,
    #: and of every flight view (``debug`` op, dumps).  Always on: its
    #: own kinds are low-rate incidents, so idle cost is ~zero.
    flight_capacity: int = 512

    # -- SLOs ----------------------------------------------------------
    #: Default per-operation latency objective, in milliseconds; a
    #: request slower than its op's objective burns error budget.
    slo_ms: float = 250.0
    #: Per-op objective overrides, e.g. ``{"snapshot": 2000.0}``.
    slo_overrides: Dict[str, float] = field(default_factory=dict)
    #: Tolerated breach fraction per op before ``/healthz`` reports the
    #: objective as failing.
    slo_error_budget: float = 0.01

    # -- replication ---------------------------------------------------
    #: Standby addresses (``"host:port"``) every committed session
    #: record is shipped to.  Empty means replication is off.
    replicas: Tuple[str, ...] = ()
    #: Pre-built replica link objects (anything with ``send``/``close``,
    #: e.g. :class:`repro.replicate.shipper.InprocLink`) appended to the
    #: TCP links built from ``replicas`` — the deterministic harness
    #: tests and benchmarks replicate through.
    replica_links: Tuple = ()
    #: ``"semi-sync"``: a write is acknowledged to the client only
    #: after every live standby acked it (zero lost acknowledged writes
    #: across failover).  ``"async"``: records drain through a
    #: background thread per link; the unacked tail can be lost.
    replication_mode: str = "semi-sync"
    #: Retry attempts + base backoff (seconds) for a replica link
    #: delivery, fed to :class:`repro.resil.RetryPolicy`.
    replication_retries: int = 3
    replication_backoff_s: float = 0.05
    #: Seal the per-session WAL into a read-only segment every N
    #: records; ``None`` keeps one file.  Segments are what let a
    #: standby join mid-life from ``checkpoint + segments since``.
    wal_segment_records: Optional[int] = None
    #: Run this server as a warm standby: it accepts ``ship`` frames
    #: and refuses session ops with 503 until ``promote`` flips it.
    standby: bool = False
    #: On a standby, load a session afresh from its replica files every
    #: N applied records and keep the sheet (its LSN is reported as
    #: ``warm_lsn``); promotion reopens from the files either way.
    #: 0 turns the reloads off.
    standby_warm_every: int = 64

    # -- transport -----------------------------------------------------
    host: str = "127.0.0.1"
    #: 0 picks an ephemeral port; read ``server.port`` after start().
    port: int = 0
    #: Byte limit per request line on the socket path.
    line_limit: int = 1 << 20

    # -- shutdown ------------------------------------------------------
    #: How long graceful shutdown waits for in-flight work to drain.
    drain_timeout: float = 30.0
