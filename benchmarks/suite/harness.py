"""Drive one workload against an in-process server and measure it.

Each request takes the wire path of the TCP shell minus the kernel
socket: :meth:`Server.handle_line` on the encoded request line, then
:func:`encode_line` on the response.  Load comes from the single
asyncio thread that runs the server's loop; there are no generator
threads and no sockets.

A run repeats for about ``--seconds``.  Each repetition builds a fresh
server over a fresh state directory and then

1. sets up: seeds every tenant with one batch and reads every cell once
   (``setup_s``);
2. runs the closed-loop phase, 8 requests outstanding (``sat_rps``);
3. after a full collection, runs the open-loop phase on a fixed-interval
   schedule, timing each request from its due time (``p50_ms``,
   ``p90_ms``, ``p99_ms``);
4. collects what verification needs and shuts the server down.

Every time is read on the run's :class:`~.calibrate.ReferenceClock`,
which calibration samples taken while the server is idle keep: before
and after every set-up and closed-loop batch, and throughout the gaps
of the open loop.  The process and its threads stay on one CPU.

Each tenant is one connection.  The TCP shell answers a connection's
lines one at a time, so a tenant's next request reaches the server only
after its previous reply; the generator queues it until then, and that
wait counts in its latency.  A tenant's requests therefore reach the
server in generated order (a resurrecting ``acquire`` would otherwise
let a later request overtake an earlier one), and since repetitions
replay one generated plan, every repetition does the same engine work.
Verification (see :mod:`.verify`) runs after the last repetition,
outside every timed window and after memory was read.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import os
import resource
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .calibrate import ReferenceClock
from .metrics import median, percentile
from .tracing import Tracer, layer_report
from .workloads import Plan, Request, Workload

__all__ = ["OUT", "Rep", "Run", "end_to_end", "interpreter", "run_workload"]

#: Benchmark scratch space (state directories, traces); gitignored.
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Requests outstanding in the closed-loop phase and during set-up.
DEPTH = 8
WORKERS = 2
MAILBOX_LIMIT = 64

#: Untraced repetitions a run makes at least, whatever ``seconds`` is.
MIN_REPS = 2

#: The open loop takes a calibration sample only if the next request is
#: due in more than ``SAMPLE_ROOM`` seconds, and spins through the rest.
SAMPLE_ROOM = 0.0015

_perf = time.perf_counter

#: What a repetition keeps of a reply: ``(True, read value or None)`` or
#: ``(False, error)``.  Whole replies would be retained by the thousand
#: and lengthen the server's collector pauses.
Outcome = Tuple[bool, Any]


def _outcome(response: Dict[str, Any]) -> Outcome:
    if response.get("ok"):
        return True, response["result"].get("value")
    return False, str(response.get("error"))


@dataclass
class Rep:
    """What one repetition measured and what verification needs."""

    traced: bool
    #: Set-up and closed-loop time in reference seconds, without the
    #: calibration samples between batches.
    setup_s: float = 0.0
    closed_s: float = 0.0
    sat_rps: float = 0.0
    #: Wall seconds of each phase, as the clock read them.
    wall: Dict[str, float] = field(default_factory=dict)
    #: Open-loop latency of each request from its due time (reference
    #: seconds).
    latencies: List[float] = field(default_factory=list)
    #: The same latencies in wall seconds.
    wall_latencies: List[float] = field(default_factory=list)
    #: How late the generator sent each open-loop request (reference
    #: seconds).
    lateness: List[float] = field(default_factory=list)
    #: ``(ok, read value or error)`` per request, in generated order.
    setup_outcomes: List[Outcome] = field(default_factory=list)
    outcomes: List[Outcome] = field(default_factory=list)
    rss_mb: float = 0.0
    #: CPU seconds of the closed loop, less those of its samples.
    cpu_s: float = 0.0
    gc_pauses: List[float] = field(default_factory=list)
    gc_gen2: int = 0
    #: Each tenant's ``dump``, ``log`` and ``audit`` replies, kept as
    #: JSON text: the collector does not traverse strings, so what one
    #: repetition keeps does not lengthen the next one's pauses.
    dumps: Dict[str, str] = field(default_factory=dict)
    logs: Dict[str, str] = field(default_factory=dict)
    audits: Dict[str, str] = field(default_factory=dict)
    shutdown: Dict[str, Any] = field(default_factory=dict)
    leaked_threads: List[str] = field(default_factory=list)
    promote_s: Optional[float] = None
    #: The promoted standby's grids by tenant, as JSON text.
    promoted: Optional[Dict[str, str]] = None
    promote_ok: Optional[bool] = None

    @property
    def failed(self) -> int:
        return sum(1 for ok, _ in self.outcomes if not ok)


@dataclass
class Run:
    """Every repetition of one workload run, plus the traced totals."""

    clock: ReferenceClock
    reps: List[Rep] = field(default_factory=list)
    layers: Optional[Dict[str, Tuple[float, str]]] = None
    wall_s: float = 0.0

    def untraced(self) -> List[Rep]:
        return [r for r in self.reps if not r.traced]


class _GcWatch:
    """Collector pauses and gen-2 collections, via ``gc.callbacks``.

    A full collection is the longest stretch the server spends without
    an idle moment, so the watch takes a calibration sample right before
    and right after each one."""

    def __init__(self, clock: ReferenceClock) -> None:
        #: ``(start, end)`` wall times of each collection.
        self.pauses: List[Tuple[float, float]] = []
        self.gen2 = 0
        self._clock = clock
        self._start = 0.0

    def __call__(self, phase: str, info: Dict[str, Any]) -> None:
        full = info.get("generation") == 2
        if phase == "start":
            if full:
                self._clock.sample()
            self._start = _perf()
            return
        self.pauses.append((self._start, _perf()))
        if full:
            self.gen2 += 1
            self._clock.sample()

    def __enter__(self) -> "_GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self)


@contextlib.contextmanager
def _one_cpu() -> Iterator[None]:
    """Keep this process, and every thread it starts, on one CPU.

    The interpreter lock lets one of the server's threads run Python at
    a time, so a second CPU adds little but the cost of handing the lock
    across CPUs, which varies with the neighbours on a shared machine.
    On one CPU the calibration loop also times the CPU the server runs
    on (see :mod:`.calibrate`)."""
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    if allowed:
        os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        if allowed:
            os.sched_setaffinity(0, allowed)


# ----------------------------------------------------------------------
# load generation
# ----------------------------------------------------------------------


def _sender(server: Any, tracer: Optional[Tracer]):
    """Send a request on its tenant's connection: wait for the tenant's
    previous reply, then do the per-line work of the TCP shell (handle
    the line, encode the reply).  Traced, that work is the request's
    root span."""
    from repro.serve.protocol import encode_line

    # asyncio locks wake waiters in FIFO order: generated order.
    connections: Dict[str, asyncio.Lock] = {}

    async def send(request: Request) -> Dict[str, Any]:
        connection = connections.setdefault(request.sid, asyncio.Lock())
        async with connection:
            if tracer is None:
                response = await server.handle_line(request.line)
                encode_line(response)
                return response
            with tracer.span("serve.handle"):
                response = await server.handle_line(request.line)
                with tracer.span("serve.encode"):
                    encode_line(response)
            return response

    return send


async def _closed_loop(send: Any, requests: List[Request], depth: int,
                       batch: int, clock: ReferenceClock):
    """``depth`` lanes take requests in generated order; each sends its
    next one when the previous reply arrives.  The requests go in
    batches of ``batch``, with a calibration sample before each batch
    and after the last.

    Returns the phase's reference seconds without the samples, its wall
    seconds with them, and each request's outcome."""
    results: List[Outcome] = [(False, "not sent")] * len(requests)
    batches: List[Tuple[float, float]] = []
    started = _perf()
    for first in range(0, len(requests), batch):
        clock.sample()
        order = iter(range(first, min(first + batch, len(requests))))

        async def lane() -> None:
            for i in order:
                results[i] = _outcome(await send(requests[i]))

        batch_started = _perf()
        await asyncio.gather(*(lane() for _ in range(depth)))
        batches.append((batch_started, _perf()))
    clock.sample()
    wall = _perf() - started
    return sum(clock.span(s, e) for s, e in batches), wall, results


async def _open_loop(send: Any, requests: List[Request], rate: float,
                     clock: ReferenceClock):
    """Send request ``i`` when the reference clock reads
    ``start + i / rate``, whatever the replies.

    A slower machine stretches the schedule with the clock, so the load
    relative to the machine stays the same.  While nothing is in flight
    the generator keeps the CPU busy with calibration samples until the
    next request is nearly due, then spins to its due time.  Every
    request that finds the server idle is thus bracketed by samples
    taken just before and just after it, and no request waits for an
    idle CPU to wake up, which on a shared machine costs a varying,
    unsampled amount.

    Returns each request's outcome, its latency from its due time and
    the generator's lateness, both in reference seconds, each latency in
    wall seconds, and the wall seconds of the phase.
    """
    loop = asyncio.get_running_loop()
    n = len(requests)
    results: List[Outcome] = [(False, "not sent")] * n
    due = [0.0] * n
    sent = [0.0] * n
    done = [0.0] * n
    in_flight = 0
    idle = asyncio.Event()

    async def one(i: int) -> None:
        nonlocal in_flight
        in_flight += 1
        idle.clear()
        results[i] = _outcome(await send(requests[i]))
        done[i] = _perf()
        in_flight -= 1
        if not in_flight:
            idle.set()

    tasks = []
    clock.sample()
    started = clock.ends[-1]
    origin = clock.at(started)
    for i in range(n):
        while True:
            # Forecast the wall time at which the clock reads the due
            # time, from the latest samples.
            now = _perf()
            wait = (origin + i / rate - clock.at(now)) / clock.factor()
            if wait <= 0:
                break
            if in_flight:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(idle.wait(), wait)
            elif wait > SAMPLE_ROOM:
                clock.sample()
            else:
                while _perf() < now + wait:
                    pass
                break
        due[i] = now + wait
        sent[i] = _perf()
        tasks.append(loop.create_task(one(i)))
        await asyncio.sleep(0)  # the request starts before the next sample
    await asyncio.gather(*tasks)
    wall = _perf() - started
    clock.sample()
    latencies = [clock.span(due[i], done[i]) for i in range(n)]
    lateness = [clock.span(due[i], sent[i]) for i in range(n)]
    walls = [done[i] - due[i] for i in range(n)]
    return results, latencies, lateness, walls, wall


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------


def _durable_sizes(root: str) -> Dict[str, int]:
    sizes = {"wal": 0, "editlog": 0}
    for sid in os.listdir(root):
        for kind in sizes:
            try:
                sizes[kind] += os.path.getsize(os.path.join(root, sid, f"sheet.{kind}"))
            except OSError:
                pass
    return sizes


class _TraceTotals:
    """Traced-phase quantities summed over traced repetitions."""

    def __init__(self) -> None:
        self.requests = 0
        self.edits = 0
        self.user_bytes = 0
        self.growth = {"wal": 0, "editlog": 0}
        self.stats: Dict[str, int] = {}
        self.graph_nodes: List[float] = []
        self.resyncs: Optional[int] = None


async def _repetition(
    workload: Workload,
    plan: Plan,
    root: str,
    tracer: Optional[Tracer],
    totals: _TraceTotals,
    clock: ReferenceClock,
) -> Rep:
    from repro.replicate.shipper import InprocLink
    from repro.replicate.standby import StandbyApplier
    from repro.serve import Server, ServeConfig

    rep = Rep(traced=tracer is not None)
    primary = os.path.join(root, "primary")
    applier = None
    links: Tuple[Any, ...] = ()
    if workload.replicated:
        # warm_every=0: no standby reload on the primary's worker thread
        # (an in-process link runs the applier there).
        applier = StandbyApplier(os.path.join(root, "standby"), warm_every=0)
        links = (InprocLink(applier.apply),)
    config = ServeConfig(
        root=primary,
        rows=workload.rows,
        cols=workload.cols,
        workers=WORKERS,
        mailbox_limit=MAILBOX_LIMIT,
        max_live_sessions=workload.max_live_sessions,
        replica_links=links,
    )
    threads_before = set(threading.enumerate())
    # The previous repetition's server is cyclic garbage until a full
    # collection; left alone it would slow this repetition's collections.
    gc.collect()

    clock.sample()
    started = _perf()
    server = Server(config)
    built = _perf()
    seeded, wall, rep.setup_outcomes = await _closed_loop(
        _sender(server, None), plan.setup, DEPTH, workload.batch, clock
    )
    rep.setup_s = clock.span(started, built) + seeded
    rep.wall["setup"] = built - started + wall

    gc.collect()
    send = _sender(server, tracer)
    if tracer is not None:
        growth0 = _durable_sizes(primary)
        resyncs0 = applier.resyncs if applier is not None else None
        tracer.runtimes = [
            (s.runtime, s.runtime.stats.snapshot())
            for s in server.sessions.live_sessions().values()
        ]
        tracer.active = True
    cpu0, samples0 = time.process_time(), len(clock.seconds)
    with _GcWatch(clock) as closed_watch:
        rep.closed_s, rep.wall["closed"], closed = await _closed_loop(
            send, plan.closed, DEPTH, workload.batch, clock
        )
        # The open loop spins between requests, so only the closed loop
        # tells the server's CPU time, less that of its samples.
        rep.cpu_s = time.process_time() - cpu0 - sum(clock.seconds[samples0:])
    # Left to the collector's schedule, a full collection of the closed
    # loop's garbage falls into the short open loop in some repetitions
    # and not in others, and the one that stalls 10% of the open loop's
    # requests moves p90_ms tenfold.
    gc.collect()
    with _GcWatch(clock) as open_watch:
        (opened, rep.latencies, rep.lateness, rep.wall_latencies,
         rep.wall["open"]) = await _open_loop(
            send, plan.open, workload.rate, clock
        )
    rep.gc_pauses = [clock.span(start, end)
                     for start, end in closed_watch.pauses + open_watch.pauses]
    rep.gc_gen2 = closed_watch.gen2 + open_watch.gen2
    rep.outcomes = closed + opened
    rep.sat_rps = len(plan.closed) / rep.closed_s
    if tracer is not None:
        tracer.active = False
        _add_traced(totals, tracer, plan, rep, server, primary, growth0,
                    applier, resyncs0)
    rep.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Resident tenants first: each cold one then evicts a tenant already
    # collected, so collection resurrects every cold tenant only once.
    live = server.sessions.live_sessions()
    for sid in sorted(plan.sids, key=lambda sid: sid not in live):
        for op, into in (("log", rep.logs), ("dump", rep.dumps), ("audit", rep.audits)):
            into[sid] = json.dumps(await server.handle({"op": op, "session": sid}))
    rep.shutdown = await server.shutdown()
    if applier is not None:
        applier.close()
        _promote(rep, os.path.join(root, "standby"), clock)
    rep.leaked_threads = _leaked(threads_before)
    return rep


def _add_traced(totals: _TraceTotals, tracer: Tracer, plan: Plan, rep: Rep,
                server: Any, primary: str, growth0: Dict[str, int],
                applier: Any, resyncs0: Optional[int]) -> None:
    requests = plan.closed + plan.open
    totals.requests += len(requests)
    for request, (ok, _) in zip(requests, rep.outcomes):
        if ok and request.edits:
            totals.edits += request.edits
            totals.user_bytes += len(request.line)
    growth = _durable_sizes(primary)
    for kind in totals.growth:
        totals.growth[kind] += growth[kind] - growth0[kind]
    for runtime, before in tracer.runtimes:
        now = runtime.stats.snapshot()
        for key, value in now.items():
            totals.stats[key] = totals.stats.get(key, 0) + value - (before or {}).get(key, 0)
    live = server.sessions.live_sessions().values()
    totals.graph_nodes.extend(len(s.runtime.graph.nodes) for s in live)
    if applier is not None:
        totals.resyncs = (totals.resyncs or 0) + applier.resyncs - resyncs0


def _promote(rep: Rep, standby_root: str, clock: ReferenceClock) -> None:
    """Promote the standby root and keep its final grids."""
    from repro.replicate.promote import promote_root

    clock.sample()
    started = _perf()
    report, sessions = promote_root(standby_root, keep_open=True)
    ended = _perf()
    clock.sample()
    rep.promote_s = clock.span(started, ended)
    rep.promote_ok = report.ok
    rep.promoted = {}
    for sid, session in sessions.items():
        sheet = session.sheet
        with session.runtime.active():
            rep.promoted[sid] = json.dumps([
                [sheet.display(r, c) for c in range(sheet.cols)]
                for r in range(sheet.rows)
            ])
        session.close(reason="promotion")


def _leaked(before: set) -> List[str]:
    """Threads started since ``before`` that are still alive after a
    short grace period (daemons are joined with timeouts)."""
    for _ in range(50):
        leaked = [t.name for t in threading.enumerate() if t not in before]
        if not leaked:
            return []
        time.sleep(0.02)
    return leaked


# ----------------------------------------------------------------------
# a run
# ----------------------------------------------------------------------


def run_workload(
    workload: Workload,
    plan: Plan,
    *,
    seconds: float,
    min_reps: int = MIN_REPS,
    trace: bool = False,
    chrome_path: Optional[str] = None,
) -> Run:
    """Run repetitions of the workload for about ``seconds``.

    A repetition starts only if one more, as long as the last, would end
    within ``seconds``; the run makes at least ``min_reps`` untraced
    repetitions.  With ``trace``, untraced repetitions fill the first
    half of the time and traced ones (at least one) the second, so a
    traced run takes about as long as an untraced one.  End-to-end
    numbers come from the untraced repetitions only, and since they all
    run before the tracer records anything, the memory high-water mark
    they read holds no tracing memory.
    """
    tracer = Tracer() if trace else None
    totals = _TraceTotals()
    state = os.path.join(OUT, "state")
    os.makedirs(state, exist_ok=True)
    run = Run(ReferenceClock(state))
    started = _perf()
    # Phases as (traced, end of the phase's time, fewest repetitions).
    phases = [(False, seconds / 2 if trace else seconds, min_reps)]
    if trace:
        phases.append((True, seconds, 1))
    try:
        with _one_cpu():
            for traced, until, fewest in phases:
                made, last = 0, 0.0
                while made < fewest or _perf() - started + last <= until:
                    rep_started = _perf()
                    run.reps.append(_one_repetition(
                        workload, plan, state, tracer if traced else None, totals, run.clock))
                    made, last = made + 1, _perf() - rep_started
    finally:
        run.clock.close()
    run.wall_s = _perf() - started
    if tracer is not None:
        run.layers = layer_report(
            tracer,
            requests=totals.requests,
            edits=totals.edits,
            user_bytes=totals.user_bytes,
            file_growth=totals.growth,
            stats_delta=totals.stats,
            graph_nodes=median(totals.graph_nodes) if totals.graph_nodes else 0.0,
            resyncs=totals.resyncs,
        )
        if chrome_path is not None:
            tracer.chrome(chrome_path)
    return run


def _one_repetition(workload: Workload, plan: Plan, state: str,
                    tracer: Optional[Tracer], totals: _TraceTotals,
                    clock: ReferenceClock) -> Rep:
    """One repetition in a fresh state directory under ``state``."""
    root = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=state)
    try:
        if tracer is not None:
            tracer.install()
        try:
            return asyncio.run(_repetition(workload, plan, root, tracer, totals, clock))
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(root, ignore_errors=True)


def end_to_end(run: Run) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics of a run, from its untraced repetitions."""
    reps = run.untraced()
    latencies = [x for r in reps for x in r.latencies]
    attempted = sum(len(r.outcomes) for r in reps)
    out: Dict[str, Tuple[float, str]] = {
        "setup_s": (median([r.setup_s for r in reps]), "s"),
        "sat_rps": (median([r.sat_rps for r in reps]), "req/s"),
        "p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (max(r.rss_mb for r in reps), "MB"),
        "error_rate": (sum(r.failed for r in reps) / max(attempted, 1), "fraction"),
    }
    # A percentile is reported only with at least ten samples beyond it.
    if len(latencies) >= 1000:
        out["p99_ms"] = (percentile(latencies, 99) * 1e3, "ms")
    promotions = [r.promote_s for r in reps if r.promote_s is not None]
    if promotions:
        out["promote_s"] = (median(promotions), "s")
    return out


def interpreter(run: Run) -> Dict[str, Tuple[float, str]]:
    """Collector and CPU metrics of the untraced repetitions, plus the
    tracing overhead when the run traced."""
    reps = run.untraced()
    pauses = [p for r in reps for p in r.gc_pauses]
    closed = sum(r.sat_rps * r.closed_s for r in reps)
    out: Dict[str, Tuple[float, str]] = {
        "gc.pause_ms_total": (sum(pauses) * 1e3 / len(reps), "ms"),
        "gc.pause_ms_max": (max(pauses, default=0.0) * 1e3, "ms"),
        "gc.gen2_count": (sum(r.gc_gen2 for r in reps) / len(reps), "count"),
        "proc.cpu_ms_per_req": (sum(r.cpu_s for r in reps) * 1e3 / closed, "ms"),
    }
    traced = [x for r in run.reps if r.traced for x in r.latencies]
    if traced:
        untraced = [x for r in reps for x in r.latencies]
        out["trace.overhead_ratio"] = (
            percentile(traced, 50) / percentile(untraced, 50), "ratio")
    return out
