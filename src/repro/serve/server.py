"""The multi-tenant incremental-computation server.

One asyncio loop owns admission, routing, and all bookkeeping; worker
threads (:mod:`repro.serve.dispatch`) run every drain.  A request's
life::

    socket line ──parse──▶ admission check ──▶ session acquire
        (429 if the tenant's mailbox is full,   (open / resurrect)
         503 if the server is draining)
                ──▶ pinned worker runs Session.apply ──▶ response line
                    (then, behind it, LRU-evict idle sessions back
                     down to the limit: their closes queue on their
                     own workers)

:meth:`Server.handle` is the transport-free core — tests, benchmarks,
and the load harness call it directly with request dicts; the TCP layer
is a thin line-framing shell around it.  The operator surface (HTTP GET
``/metrics``, ``/healthz``, ``/sessions`` on the same port) serves
Prometheus text from the registry that every tenant runtime and the
serve layer itself aggregate into.

Graceful shutdown is drain-then-checkpoint: stop admitting, wait for
in-flight work and queued eviction closes, checkpoint and close every
session (stopping their deadline monitors and drain pools), then join
the worker threads — a clean shutdown leaks zero threads.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import time
import weakref
from typing import Any, Dict, Optional

from ..obs.metrics import MetricsRegistry
from ..obs.trace import trace_scope
from .config import ServeConfig
from .dispatch import WorkerPool
from .manager import SessionManager
from .metrics import ServeMetrics
from .telemetry import ServeTelemetry
from .protocol import (
    SESSION_OPS,
    ProtocolError,
    Rejected,
    ServeError,
    Unavailable,
    encode_line,
    error_response,
    http_response,
    is_http,
    ok_response,
    parse_request,
)

__all__ = ["Server"]


class Server:
    """Sessions + admission + transport, configured by :class:`ServeConfig`."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.metrics = ServeMetrics(self.registry)
        self.telemetry = ServeTelemetry(self.config, self.metrics)
        self.pool = WorkerPool(self.config.workers)
        self.sessions = SessionManager(
            self.config, self.pool, self.metrics, self.telemetry.flight
        )
        # Collector pauses into /metrics.  gc.callbacks is process-wide:
        # shutdown() removes the hook, and so does collecting a server
        # that was never shut down.
        self._gc_hook = weakref.finalize(
            self, gc.callbacks.remove, self.metrics.gc_pauses
        )
        gc.callbacks.append(self.metrics.gc_pauses)
        # Replication role: a standby owns an applier; a primary with
        # replicas configured owns a shipper that every session opened
        # by the manager attaches to.  A plain server owns neither.
        self._standby = self.config.standby
        self._promoting = False
        self.shipper = None
        self.applier = None
        if self._standby:
            from ..replicate.standby import StandbyApplier

            self.applier = StandbyApplier(
                self.config.root,
                warm_every=self.config.standby_warm_every,
                metrics=self.metrics,
                flight=self.telemetry.flight,
            )
        elif self.config.replicas or self.config.replica_links:
            from ..replicate.shipper import LinkDown, Shipper, TcpLink
            from ..resil.retry import RetryPolicy

            links = []
            for address in self.config.replicas:
                host, _, port = address.rpartition(":")
                links.append(TcpLink(host or "127.0.0.1", int(port)))
            links.extend(self.config.replica_links)
            self.shipper = Shipper(
                links,
                mode=self.config.replication_mode,
                root=self.config.root,
                retry=RetryPolicy(
                    max_attempts=self.config.replication_retries,
                    base_delay=self.config.replication_backoff_s,
                    max_delay=1.0,
                    retry_on=LinkDown,
                ),
                metrics=self.metrics,
                flight=self.telemetry.flight,
            )
            if self.config.replication_mode == "async":
                # Background shipper threads heal NACKs through the
                # session's own worker so the snapshot is quiescent.
                self.shipper.resync_source = self._resync_frame_for
            self.sessions.shipper = self.shipper
        self._tcp: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None
        self._draining = False
        self._closed = False
        #: Set when the last in-flight request finishes while draining.
        self._idle = asyncio.Event()
        self._idle.set()
        self._total_inflight = 0
        #: Background loop tasks (a remote-initiated shutdown) awaited
        #: before shutdown tears anything down.
        self._bg_tasks: set = set()
        #: Open TCP connections, each writer with its handler task:
        #: shutdown closes them and awaits the handlers.
        self._connections: Dict[asyncio.StreamWriter, "asyncio.Task[Any]"] = {}

    # -- core dispatch (transport-free) --------------------------------

    async def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one already-parsed request; always returns a response
        dict (errors become ``ok: false`` payloads, never exceptions).

        A :class:`~repro.obs.trace.TraceContext` is minted here and
        installed for the whole request: the dispatch shim carries it
        onto the worker thread, so flight notes, span records, and
        resilience events downstream all tag themselves with this
        request's ids — and every error payload echoes them back.
        """
        ctx = self.telemetry.begin(request)
        with trace_scope(ctx):
            started = time.perf_counter()
            code = 200
            try:
                result = await self._dispatch(request)
            except ServeError as exc:
                code = exc.code
                if isinstance(exc, Rejected):
                    self.metrics.rejections.inc()
                else:
                    self.metrics.errors.inc()
                return error_response(request, exc, trace=ctx)
            except Exception as exc:  # noqa: BLE001 - report, don't kill the loop
                code = 500
                self.metrics.errors.inc()
                return error_response(
                    request, ServeError(f"internal error: {exc}"), trace=ctx
                )
            finally:
                elapsed = time.perf_counter() - started
                self.metrics.request_seconds.observe(elapsed)
                self.telemetry.finish(ctx, elapsed, code)
            return ok_response(request, result)

    async def handle_line(self, line: bytes) -> Dict[str, Any]:
        """Parse + handle one wire line (shared by TCP and tests)."""
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            self.metrics.errors.inc()
            return error_response(None, exc, trace=self.telemetry.begin(None))
        return await self.handle(request)

    async def _dispatch(self, request: Dict[str, Any]) -> Any:
        op = request.get("op")
        if op in SESSION_OPS:
            return await self._session_op(request)
        if op == "healthz":
            return self.health()
        if op == "metrics":
            return {"prometheus": self.registry.to_prometheus()}
        if op == "server_stats":
            return self.server_stats()
        if op == "ship":
            return await self._ship(request)
        if op == "replication":
            return self.replication_status()
        if op == "promote":
            return await self.promote()
        if op == "shutdown":
            # Ack first, drain in the background: the requesting client
            # still gets its response line before admission closes.
            self._spawn(self.shutdown())
            return {"draining": True}
        raise ProtocolError(f"unknown op {op!r}")

    async def _session_op(self, request: Dict[str, Any]) -> Any:
        if self._draining:
            raise Unavailable("server is draining for shutdown")
        if self._standby:
            raise Unavailable(
                "standby replica: session ops are refused until promoted"
            )
        sid = request["session"]
        inflight = self.sessions.inflight
        depth = inflight.get(sid, 0)
        if depth >= self.config.mailbox_limit:
            raise Rejected(
                f"session {sid!r} mailbox full "
                f"({depth}/{self.config.mailbox_limit})",
                self.config.retry_after,
            )
        inflight[sid] = depth + 1
        self._total_inflight += 1
        self._idle.clear()
        try:
            session = await self.sessions.acquire(sid)
            submitted = time.perf_counter()

            def job() -> Any:
                # Worker side of the hop, inside the dispatch shim's
                # copied context: the note carries the request's trace
                # ids plus how long the job sat queued behind the
                # tenant's earlier operations.
                queued = time.perf_counter() - submitted
                started = time.perf_counter()
                try:
                    return session.apply(request)
                finally:
                    self.telemetry.flight.note(
                        "dispatch",
                        sid,
                        data={
                            "worker": self.pool.worker_for(sid),
                            "queued_s": round(queued, 6),
                        },
                        duration=time.perf_counter() - started,
                    )

            result = await asyncio.wrap_future(self.pool.submit(sid, job))
        finally:
            remaining = inflight.get(sid, 1) - 1
            if remaining:
                inflight[sid] = remaining
            else:
                inflight.pop(sid, None)
            self._total_inflight -= 1
            if self._total_inflight == 0:
                self._idle.set()
            if not self._draining:
                # Behind the reply: the live set goes back to the limit
                # (an open that overflowed it, or busy sessions that
                # have gone idle) without this request waiting.
                self.sessions.evict_over_limit(keep=sid)
        self.metrics.requests.inc()
        return result

    # -- replication ---------------------------------------------------

    async def _ship(self, request: Dict[str, Any]) -> Any:
        """Apply one replication frame from a primary (standby role).
        Frames for one session ride that session's pinned worker, so
        stream order per session is the worker queue's order."""
        if self.applier is None:
            raise ProtocolError("this server is not a standby")
        if self._draining or self._promoting:
            raise Unavailable("standby is draining or promoting")
        frame = request.get("frame")
        if not isinstance(frame, dict):
            raise ProtocolError("'frame' must be an object")
        sid = frame.get("sid")
        if not isinstance(sid, str) or not sid:
            raise ProtocolError("ship frame requires a 'sid' string")
        applier = self.applier
        try:
            return await asyncio.wrap_future(
                self.pool.submit(sid, lambda: applier.apply(frame))
            )
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc

    def _resync_frame_for(self, sid: str) -> Optional[Dict[str, Any]]:
        """Resync snapshot for async-mode healing (shipper thread).
        Runs the build on the session's pinned worker when the session
        is resident; None lets the shipper fall back to reading files."""
        session = self.sessions.get(sid)
        if session is None or session.closed:
            return None
        return self.pool.submit(sid, session.build_resync_frame).result()

    def replication_status(self) -> Dict[str, Any]:
        if self.shipper is not None:
            return self.shipper.status()
        if self.applier is not None:
            status = self.applier.status()
            status["promoting"] = self._promoting
            return status
        return {"role": "standby-promoted" if self.config.standby else "none"}

    async def promote(self) -> Dict[str, Any]:
        """Standby -> primary: replay every session's WAL tail through
        ordinary resurrection, audit invariants, open for writes.

        Sessions are opened via the residency manager (on their pinned
        workers, LRU bounds respected: each audited session makes room
        as a request would, and promotion waits for those closes), so
        after promotion the server is in exactly the state a normal
        primary restart would reach — there is no special
        post-promotion regime.
        """
        from ..replicate.promote import PromotionReport, session_ids

        if self.applier is None:
            raise ProtocolError("this server is not a standby")
        if self._promoting:
            raise Unavailable("promotion already in progress")
        if self._draining:
            raise Unavailable("server is draining for shutdown")
        self._promoting = True
        started = time.perf_counter()
        report = PromotionReport(root=self.config.root)
        try:
            # Stop applying and release replica handles/warm runtimes:
            # from here on the files belong to the sessions.
            applied = self.applier.status()
            self.applier.close()
            for sid in session_ids(self.config.root):
                report.sessions += 1
                try:
                    session = await self.sessions.acquire(sid)
                except ServeError as exc:  # report it, promote the rest
                    report.errors[sid] = exc.message
                    continue
                report.note_opened(sid, session.runtime)

                def audit_job(session=session):
                    from ..core.integrity import audit

                    with session.runtime.active():
                        return audit(session.runtime, raise_on_violation=False)

                report.violations[sid] = await asyncio.wrap_future(
                    self.pool.submit(sid, audit_job)
                )
                self.sessions.evict_over_limit(keep=sid)
            await self.sessions.wait_closed()
            self._standby = False
            self.applier = None
        finally:
            self._promoting = False
        report.elapsed_seconds = time.perf_counter() - started
        self.metrics.promotions.inc()
        result = report.to_dict()
        result["promoted"] = True
        result["standby_applied"] = applied
        self.telemetry.flight.note(
            "replication",
            "promoted to primary",
            data={
                "sessions": report.sessions,
                "replayed_records": report.replayed_records,
                "ok": report.ok,
            },
        )
        try:
            self.telemetry.flight.dump(
                os.path.join(self.config.root, "flight-promotion.jsonl"),
                reason="promotion",
                extra={"report": result},
            )
        except OSError:
            pass  # evidence is best-effort; promotion already succeeded
        return result

    def _spawn(self, coro: Any) -> "asyncio.Task[Any]":
        task = asyncio.get_running_loop().create_task(coro)
        self._bg_tasks.add(task)
        task.add_done_callback(self._bg_tasks.discard)
        return task

    # -- operator surface ----------------------------------------------

    def health(self) -> Dict[str, Any]:
        if self.applier is not None:
            role = "standby"
        elif self.shipper is not None:
            role = "primary"
        else:
            role = "promoted" if self.config.standby else "solo"
        health: Dict[str, Any] = {
            "status": "draining" if self._draining else "ok",
            "role": role,
            "live_sessions": self.sessions.live,
            "inflight": self._total_inflight,
            "slo": self.telemetry.slo.status(),
        }
        if self.shipper is not None:
            health["replication_lag_records"] = self.shipper.status()[
                "lag_records"
            ]
        return health

    def server_stats(self) -> Dict[str, Any]:
        return {
            "health": self.health(),
            "counters": self.metrics.counters(),
            "sessions": self.sessions.stats(),
        }

    def _http_get(self, path: str) -> bytes:
        if path in ("/healthz", "/health"):
            body = json.dumps(self.health())
            status = "503 Service Unavailable" if self._draining else "200 OK"
            return http_response(status, body, content_type="application/json")
        if path == "/metrics":
            return http_response(
                "200 OK",
                self.registry.to_prometheus(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        if path == "/sessions":
            return http_response(
                "200 OK",
                json.dumps(self.server_stats(), default=str, indent=2),
                content_type="application/json",
            )
        if path == "/replication":
            return http_response(
                "200 OK",
                json.dumps(self.replication_status(), default=str, indent=2),
                content_type="application/json",
            )
        if path == "/debug" or path.startswith("/debug/"):
            return self._http_debug(path)
        return http_response("404 Not Found", f"no route {path}\n")

    def _http_debug(self, path: str) -> bytes:
        """``GET /debug`` — the server's flight ring; ``GET
        /debug/<sid>`` — a live session's ring (404 when not resident:
        an evicted tenant's evidence is its on-disk ``flight.jsonl``)."""
        sid = path[len("/debug/"):] if path.startswith("/debug/") else ""
        if not sid:
            body = {
                "scope": "server",
                "records": self.telemetry.flight.records(),
                "recorded": self.telemetry.flight.recorded,
                "dropped": self.telemetry.flight.dropped,
            }
        else:
            session = self.sessions.get(sid)
            if session is None:
                return http_response(
                    "404 Not Found", f"session {sid!r} is not resident\n"
                )
            body = {
                "scope": sid,
                "records": session.flight.records(),
                "recorded": session.flight.recorded,
                "dropped": session.flight.dropped,
            }
        return http_response(
            "200 OK",
            json.dumps(body, default=str, indent=2),
            content_type="application/json",
        )

    def export_chrome(self) -> Dict[str, Any]:
        """The stitched Chrome trace across the server and every live
        session (loop thread only)."""
        return self.telemetry.stitched_chrome(self.sessions.live_sessions())

    # -- TCP transport -------------------------------------------------

    async def start(self) -> "Server":
        """Bind the listening socket (port 0 picks an ephemeral port)."""
        self._tcp = await asyncio.start_server(
            self._on_connection,
            self.config.host,
            self.config.port,
            limit=self.config.line_limit,
        )
        self.port = self._tcp.sockets[0].getsockname()[1]
        return self

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        handler = asyncio.current_task()
        self._connections[writer] = handler
        # Forgotten once the handler has finished, its close included.
        handler.add_done_callback(lambda _: self._connections.pop(writer, None))
        try:
            first = await reader.readline()
            if not first:
                return
            if is_http(first):
                await self._serve_http(first, reader, writer)
                return
            line = first
            while line:
                response = await self.handle_line(line.strip() or b"{}")
                writer.write(encode_line(response))
                await writer.drain()
                line = await reader.readline()
        except (ConnectionResetError, BrokenPipeError, asyncio.LimitOverrunError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_http(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        # Drain the (ignored) request headers so the peer's write side
        # is consumed before we respond and close.
        while True:
            header = await reader.readline()
            if header in (b"", b"\r\n", b"\n"):
                break
        parts = first.decode("ascii", "replace").split()
        path = parts[1] if len(parts) > 1 else "/"
        writer.write(self._http_get(path))
        await writer.drain()

    # -- shutdown ------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def closed(self) -> bool:
        return self._closed

    async def _close_connections(self) -> None:
        """Close every open connection and wait, bounded by
        ``drain_timeout``, for its handler to see end-of-stream and
        return, so none is left parked for the event loop to cancel."""
        handlers = list(self._connections.values())
        for writer in self._connections:
            writer.close()
        if handlers:
            await asyncio.wait(handlers, timeout=self.config.drain_timeout)

    async def shutdown(self) -> Dict[str, Any]:
        """Drain-then-checkpoint graceful shutdown.

        Stops admitting session work, waits (bounded) for in-flight
        requests, checkpoints and closes every session, closes the
        listener and every open connection (awaiting their handlers),
        and joins the worker threads.  Idempotent; returns a small
        report.
        """
        if self._closed:
            return {"closed": True, "sessions_closed": 0, "drained": True}
        self._draining = True
        drained = True
        if self._total_inflight:
            try:
                await asyncio.wait_for(
                    self._idle.wait(), timeout=self.config.drain_timeout
                )
            except asyncio.TimeoutError:
                drained = False
        # Let background tasks finish before tearing down (minus this
        # task itself when shutdown arrived over the wire).
        pending = [t for t in self._bg_tasks if t is not asyncio.current_task()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        # Queued eviction closes first, then every live session.
        closed = await self.sessions.close_all()
        # Sessions shipped their closing checkpoints above; now drain
        # the replication queues and release links/replica handles.
        if self.shipper is not None:
            self.shipper.close()
        if self.applier is not None:
            self.applier.close()
        if self._tcp is not None:
            self._tcp.close()
            await self._close_connections()
            await self._tcp.wait_closed()
            self._tcp = None
        self.pool.close()
        self._gc_hook()
        self._closed = True
        # Last act: preserve the server's flight ring next to the
        # session state, so a postmortem of the *whole process* has the
        # recent request/dispatch history even after a clean exit.
        try:
            os.makedirs(self.config.root, exist_ok=True)
            self.telemetry.flight.dump(
                os.path.join(self.config.root, "flight-server.jsonl"),
                reason="shutdown",
                extra={"slo": self.telemetry.slo.status()},
            )
        except OSError:
            pass  # a dump must never turn a clean shutdown into a crash
        return {"closed": True, "sessions_closed": closed, "drained": drained}
