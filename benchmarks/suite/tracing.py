"""Per-layer spans recorded from the benchmark's side of each layer.

:class:`Tracer` replaces public functions of ``repro.serve``,
``repro.spreadsheet``, ``repro.core``, ``repro.persist`` and
``repro.replicate`` with timing wrappers for the duration of a traced
repetition, and restores them afterwards; nothing under ``src/``
changes.  A span records its name, start, end, parent span and the
``trace_id`` of the request it served
(:func:`repro.obs.trace.current_trace`).  The parent lives in a
benchmark-owned :class:`~contextvars.ContextVar`, which
``WorkerPool.submit`` already copies onto the worker thread, so a
session operation on a worker nests under the request that the asyncio
loop is handling.

The engine is recursive, so ``core`` spans are kept only at the
outermost engine entry on each thread; procedure-body executions below
it are aggregated without spans (their self time feeds
``core.execute_self_us``).  The ``obs`` layer is counted, not timed:
its work runs inside event handlers of the layer that emitted.

A span's self time is its duration minus the union of its children's
intervals.  A child that outlives its parent, such as an eviction
started by a request and finished after it, becomes a root of its own.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time
from contextvars import ContextVar
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.trace import current_trace

from .metrics import median, percentile

__all__ = ["Analysis", "Tracer", "layer_report"]

#: The span the executing code runs under (0 outside any span).
_PARENT: "ContextVar[int]" = ContextVar("suite_span_parent", default=0)

#: A recorded span: (id, parent, name, start, end, thread, trace_id).
Span = Tuple[int, int, str, float, float, int, Optional[str]]

_perf = time.perf_counter


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Spans and counters from wrappers installed around each layer."""

    def __init__(self) -> None:
        #: Wrappers record only while this is set; the harness turns it
        #: on for the timed phases of a traced repetition.
        self.active = False
        self.spans: List[Span] = []
        #: ``(runtime, rt.stats snapshot at phase start)`` for every tenant
        #: runtime live during the traced phases (``None`` for runtimes
        #: opened during them); the layer report sums ``rt.stats`` deltas.
        self.runtimes: List[Tuple[Any, Optional[Dict[str, int]]]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_counts: List[collections.Counter] = []
        self._counts_lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def counts(self) -> collections.Counter:
        """This thread's counters (merged by :meth:`totals`)."""
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = collections.Counter()
            self._local.counts = counts
            with self._counts_lock:
                self._thread_counts.append(counts)
        return counts

    def totals(self) -> collections.Counter:
        total: collections.Counter = collections.Counter()
        with self._counts_lock:
            for counts in self._thread_counts:
                total.update(counts)
        return total

    def _open(self) -> Tuple[int, int, Any, float]:
        """Start a span under the current one and make it current."""
        parent = _PARENT.get()
        span_id = next(self._ids)
        return parent, span_id, _PARENT.set(span_id), _perf()

    def _close(self, name: str, opened: Tuple[int, int, Any, float]) -> None:
        parent, span_id, token, start = opened
        end = _perf()
        _PARENT.reset(token)
        ctx = current_trace()
        self.spans.append((span_id, parent, name, start, end, threading.get_ident(),
                           None if ctx is None else ctx.trace_id))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the ``with`` body as one span (a no-op when inactive)."""
        if not self.active:
            yield
            return
        opened = self._open()
        try:
            yield
        finally:
            self._close(name, opened)

    def _timed(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            opened = tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, opened)

        return wrapper

    def _core(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """A ``core`` span, kept only at the outermost engine entry."""
        timed = self._timed(fn, name)
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            depth = getattr(local, "core_depth", 0)
            local.core_depth = depth + 1
            try:
                return (timed if depth == 0 else fn)(*args, **kwargs)
            finally:
                local.core_depth = depth

        return wrapper

    # -- installation --------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced function (idempotent until :meth:`uninstall`)."""
        if self._patches:
            return
        from repro.core.events import EventBus
        from repro.core.runtime import Runtime
        from repro.core.transaction import Transaction
        from repro.obs.flight import FlightRecorder
        from repro.persist.wal import PersistenceManager, WriteAheadLog
        from repro.replicate.shipper import Shipper
        from repro.replicate.standby import StandbyApplier
        from repro.serve import server as server_mod
        from repro.serve.dispatch import WorkerPool
        from repro.serve.manager import SessionManager
        from repro.serve.session import Session
        from repro.spreadsheet import formula as formula_mod
        from repro.spreadsheet.model import Spreadsheet

        # The package re-exports a function under the submodule's name.
        recover_mod = importlib.import_module("repro.persist.recover")
        timed = self._timed
        # serve
        self._patch(server_mod, "parse_request",
                    timed(server_mod.parse_request, "serve.parse"))
        self._patch(Session, "apply", timed(Session.apply, "serve.apply"))
        self._patch(Session, "close", timed(Session.close, "serve.close"))
        self._patch(Session, "open", classmethod(self._session_open(
            Session.__dict__["open"].__func__)))
        self._patch(SessionManager, "acquire", self._acquire(SessionManager.acquire))
        self._patch(WorkerPool, "submit", self._submit(WorkerPool.submit))
        # spreadsheet
        self._patch(Spreadsheet, "set_formula",
                    timed(Spreadsheet.set_formula, "spreadsheet.set_formula"))
        self._patch(Spreadsheet, "value", timed(Spreadsheet.value, "spreadsheet.value"))
        self._patch(formula_mod, "parse_formula",
                    timed(formula_mod.parse_formula, "spreadsheet.parse_formula"))
        # core
        self._patch(Runtime, "call", self._core(Runtime.call, "core.call"))
        self._patch(Runtime, "on_modify", self._core(Runtime.on_modify, "core.modify"))
        self._patch(Runtime, "flush", self._core(Runtime.flush, "core.flush"))
        self._patch(Transaction, "commit", self._core(Transaction.commit, "core.commit"))
        self._patch(Runtime, "execute_node", self._execute(Runtime.execute_node))
        self._patch(EventBus, "emit", self._emit(EventBus.emit))
        # persist
        self._patch(WriteAheadLog, "append",
                    timed(WriteAheadLog.append, "persist.wal_append"))
        self._patch(PersistenceManager, "checkpoint",
                    self._checkpoint(PersistenceManager.checkpoint))
        self._patch(recover_mod, "recover",
                    timed(recover_mod.recover, "persist.recover"))
        # replicate
        self._patch(Shipper, "ship", self._ship(Shipper.ship))
        self._patch(StandbyApplier, "apply",
                    timed(StandbyApplier.apply, "replicate.standby_apply"))
        # obs
        self._patch(FlightRecorder, "note", self._counted(FlightRecorder.note, "obs.flight_notes"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers with extra bookkeeping -------------------------------

    def _session_open(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        timed = self._timed(fn, "serve.open")
        tracer = self

        @functools.wraps(fn)
        def wrapper(cls: Any, *args: Any, **kwargs: Any) -> Any:
            session = timed(cls, *args, **kwargs)
            if tracer.active:
                tracer.runtimes.append((session.runtime, None))
            return session

        return wrapper

    def _acquire(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        async def wrapper(manager: Any, sid: str) -> Any:
            if not tracer.active:
                return await fn(manager, sid)
            counts = tracer.counts()
            counts["serve.acquires"] += 1
            if manager.get(sid) is None:
                counts["serve.acquire_misses"] += 1
            with tracer.span("serve.acquire"):
                return await fn(manager, sid)

        return wrapper

    def _submit(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Queue wait: a span from the submit call to the job's start."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(pool: Any, key: str, job: Callable[[], Any]) -> Any:
            if not tracer.active:
                return fn(pool, key, job)
            parent = _PARENT.get()
            submitted = _perf()
            ctx = current_trace()

            def queued_job() -> Any:
                tracer.spans.append(
                    (next(tracer._ids), parent, "serve.queue_wait", submitted,
                     _perf(), threading.get_ident(), None if ctx is None else ctx.trace_id)
                )
                return job()

            return fn(pool, key, queued_job)

        return wrapper

    def _execute(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Self time of each procedure-body execution, without spans."""
        tracer = self
        local = self._local

        @functools.wraps(fn)
        def wrapper(rt: Any, node: Any) -> Any:
            if not tracer.active:
                return fn(rt, node)
            stack = getattr(local, "exec_stack", None)
            if stack is None:
                stack = local.exec_stack = []
            stack.append(0.0)
            start = _perf()
            try:
                return fn(rt, node)
            finally:
                elapsed = _perf() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                counts = tracer.counts()
                counts["core.execute_self_s"] += elapsed - nested
                counts["core.executions_timed"] += 1

        return wrapper

    def _emit(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def wrapper(bus: Any, kind: Any, node: Any = None, amount: int = 1,
                    data: Any = None) -> None:
            if tracer.active:
                counts = tracer.counts()
                counts["core.events"] += 1
                counts["obs.handler_calls"] += bus.subscriber_count(kind)
            fn(bus, kind, node, amount, data)

        return wrapper

    def _counted(self, fn: Callable[..., Any], key: str) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer.active:
                tracer.counts()[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _checkpoint(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A checkpoint truncates the WAL: count the bytes it drops, so
        WAL growth over a phase plus truncated bytes gives bytes written."""
        timed = self._timed(fn, "persist.checkpoint")
        tracer = self

        @functools.wraps(fn)
        def wrapper(manager: Any, *args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(manager, *args, **kwargs)
            truncated = _size(manager.wal.path)
            result = timed(manager, *args, **kwargs)
            counts = tracer.counts()
            counts["persist.wal_truncated_bytes"] += truncated
            counts["persist.checkpoint_bytes"] += _size(manager.path)
            counts["persist.checkpoints"] += 1
            return result

        return wrapper

    def _ship(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        timed = self._timed(fn, "replicate.ship")
        tracer = self

        @functools.wraps(fn)
        def wrapper(shipper: Any, sid: str, records: List[Dict[str, Any]],
                    *args: Any, **kwargs: Any) -> Any:
            if tracer.active:
                counts = tracer.counts()
                counts["replicate.records"] += len(records)
                counts["replicate.bytes"] += sum(len(r["p"]) for r in records)
            return timed(shipper, sid, records, *args, **kwargs)

        return wrapper

    # -- analysis ------------------------------------------------------

    def analyze(self) -> "Analysis":
        return Analysis(self.spans)

    def chrome(self, path: str) -> None:
        """Write the recorded spans as a Chrome trace."""
        Analysis(self.spans).write_chrome(path)


class Analysis:
    """Span trees, self times and per-request reconciliation."""

    def __init__(self, spans: List[Span]) -> None:
        self.spans = spans
        by_id = {s[0]: s for s in spans}
        self.children: Dict[int, List[Span]] = collections.defaultdict(list)
        self.roots: List[Span] = []
        for s in spans:
            parent = by_id.get(s[1])
            if parent is not None and parent[3] <= s[3] and s[4] <= parent[4]:
                self.children[parent[0]].append(s)
            else:
                self.roots.append(s)
        self.self_time: Dict[int, float] = {}
        for s in spans:
            self.self_time[s[0]] = (s[4] - s[3]) - _covered(self.children.get(s[0], ()))

    def durations(self, name: str) -> List[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def by_layer(self) -> Dict[str, float]:
        """Total self seconds per layer (the name's first component)."""
        totals: Dict[str, float] = collections.Counter()
        for s in self.spans:
            totals[s[2].split(".", 1)[0]] += self.self_time[s[0]]
        return dict(totals)

    def requests(self) -> List[Span]:
        return [s for s in self.roots if s[2] == "serve.handle"]

    def subtree(self, root: Span) -> Iterator[Span]:
        stack = [root]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(self.children.get(span[0], ()))

    def queue_waits(self) -> List[float]:
        """Queue wait of each request's session operation."""
        return [
            c[4] - c[3]
            for root in self.requests()
            for c in self.children.get(root[0], ())
            if c[2] == "serve.queue_wait"
        ]

    def reconciled_share(self, tolerance: float = 0.05) -> float:
        """Share of requests whose spans' self times add up to the root
        ``serve.handle`` span within ``tolerance``."""
        roots = self.requests()
        if not roots:
            return 0.0
        good = 0
        for root in roots:
            total = sum(self.self_time[s[0]] for s in self.subtree(root))
            duration = root[4] - root[3]
            if abs(total - duration) <= tolerance * duration:
                good += 1
        return good / len(roots)

    def write_chrome(self, path: str) -> None:
        base = min((s[3] for s in self.spans), default=0.0)
        lanes: Dict[int, int] = {}
        events = []
        for s in self.spans:
            trace_id = s[6]
            if trace_id is None:
                trace_id = next(
                    (c[6] for c in self.children.get(s[0], ()) if c[6]), None
                )
            events.append(
                {
                    "name": s[2],
                    "cat": s[2].split(".", 1)[0],
                    "ph": "X",
                    "ts": round((s[3] - base) * 1e6, 3),
                    "dur": round((s[4] - s[3]) * 1e6, 3),
                    "pid": 1,
                    "tid": lanes.setdefault(s[5], len(lanes) + 1),
                    "args": {"span": s[0], "parent": s[1], "trace_id": trace_id},
                }
            )
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _covered(children: Any) -> float:
    """Length of the union of the children's intervals."""
    total = 0.0
    end = -1.0
    for _, _, _, start, stop, _, _ in sorted(children, key=lambda s: s[3]):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def layer_report(
    tracer: Tracer,
    *,
    requests: int,
    edits: int,
    user_bytes: int,
    file_growth: Dict[str, int],
    stats_delta: Dict[str, int],
    graph_nodes: float,
    resyncs: Optional[int],
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of the traced phases, as ``name -> (value, unit)``.

    Metrics whose events did not occur in the workload (no evictions, no
    replication) are left out rather than reported as 0.
    """
    a = tracer.analyze()
    counts = tracer.totals()
    out: Dict[str, Tuple[float, str]] = {}
    per_req = 1.0 / max(requests, 1)
    per_edit = 1.0 / max(edits, 1)

    def dist(prefix: str, values: List[float], unit: str, scale: float) -> None:
        if values:
            out[f"{prefix}.p50"] = (percentile(values, 50) * scale, unit)
            out[f"{prefix}.p99"] = (percentile(values, 99) * scale, unit)

    def typical(name: str, span: str, unit: str, scale: float) -> None:
        values = a.durations(span)
        if values:
            out[name] = (median(values) * scale, unit)

    self_by_layer = a.by_layer()
    for layer in ("serve", "spreadsheet", "core", "persist", "replicate"):
        if layer in self_by_layer:
            out[f"{layer}.self_ms_per_req"] = (
                self_by_layer[layer] * 1e3 * per_req, "ms")

    # serve
    dist("serve.handle_ms", a.durations("serve.handle"), "ms", 1e3)
    dist("serve.queue_wait_ms", a.queue_waits(), "ms", 1e3)
    dist("serve.apply_ms", a.durations("serve.apply"), "ms", 1e3)
    typical("serve.parse_us", "serve.parse", "us", 1e6)
    typical("serve.encode_us", "serve.encode", "us", 1e6)
    typical("serve.open_ms", "serve.open", "ms", 1e3)
    typical("serve.close_ms", "serve.close", "ms", 1e3)
    if counts["serve.acquires"]:
        out["serve.acquire_miss_ratio"] = (
            counts["serve.acquire_misses"] / counts["serve.acquires"], "ratio")

    # spreadsheet
    typical("spreadsheet.set_formula_us", "spreadsheet.set_formula", "us", 1e6)
    typical("spreadsheet.parse_formula_us", "spreadsheet.parse_formula", "us", 1e6)
    typical("spreadsheet.value_us", "spreadsheet.value", "us", 1e6)

    # core
    executions = stats_delta.get("executions", 0)
    hits = stats_delta.get("cache_hits", 0)
    out["core.executions_per_req"] = (executions * per_req, "count")
    out["core.accesses_per_req"] = (stats_delta.get("accesses", 0) * per_req, "count")
    out["core.propagation_steps_per_req"] = (
        stats_delta.get("propagation_steps", 0) * per_req, "count")
    if hits + executions:
        out["core.cache_hit_ratio"] = (hits / (hits + executions), "ratio")
    out["core.events_per_req"] = (counts["core.events"] * per_req, "count")
    if counts["core.executions_timed"]:
        out["core.execute_self_us"] = (
            counts["core.execute_self_s"] / counts["core.executions_timed"] * 1e6, "us")
    out["core.graph_nodes"] = (graph_nodes, "count")

    # persist
    typical("persist.wal_append_us", "persist.wal_append", "us", 1e6)
    wal_records = len(a.durations("persist.wal_append"))
    wal_bytes = file_growth["wal"] + counts["persist.wal_truncated_bytes"]
    if edits:
        out["persist.wal_records_per_edit"] = (wal_records * per_edit, "count")
        out["persist.wal_bytes_per_edit"] = (wal_bytes * per_edit, "bytes")
        out["persist.editlog_bytes_per_edit"] = (file_growth["editlog"] * per_edit, "bytes")
    typical("persist.checkpoint_ms", "persist.checkpoint", "ms", 1e3)
    if counts["persist.checkpoints"]:
        out["persist.checkpoint_bytes"] = (
            counts["persist.checkpoint_bytes"] / counts["persist.checkpoints"], "bytes")
    typical("persist.recover_ms", "persist.recover", "ms", 1e3)
    if user_bytes:
        durable = wal_bytes + file_growth["editlog"] + counts["persist.checkpoint_bytes"]
        out["persist.durable_bytes_per_user_byte"] = (durable / user_bytes, "ratio")

    # replicate
    ships = a.durations("replicate.ship")
    if ships:
        dist("replicate.ship_ms", ships, "ms", 1e3)
        out["replicate.records_per_edit"] = (counts["replicate.records"] * per_edit, "count")
        out["replicate.bytes_per_edit"] = (counts["replicate.bytes"] * per_edit, "bytes")
        typical("replicate.standby_apply_us", "replicate.standby_apply", "us", 1e6)
        if resyncs is not None:
            out["replicate.resyncs"] = (float(resyncs), "count")

    # obs
    out["obs.flight_notes_per_req"] = (counts["obs.flight_notes"] * per_req, "count")
    out["obs.handler_calls_per_req"] = (counts["obs.handler_calls"] * per_req, "count")

    out["trace.reconciled_share"] = (a.reconciled_share(), "ratio")
    return out
