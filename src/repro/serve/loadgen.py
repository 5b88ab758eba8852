"""Seeded load harness for the serve layer.

Simulates many concurrent clients editing shared spreadsheets through a
real :class:`~repro.serve.server.Server`, then *proves* the run was
correct rather than merely surviving it:

* **Convergence** — each session records its applied edits in execution
  order; after the run, the same log is replayed serially onto a fresh
  runtime and the final grids must match cell for cell.  This is the
  incremental-vs-recompute equivalence claim of the paper, checked
  end-to-end through sockets, admission control, eviction, and
  resurrection.
* **Soundness** — every session's dependency graph passes the
  structural invariant audit (:func:`repro.core.integrity.audit`).
* **Hygiene** — after drain-then-checkpoint shutdown, no serve-layer
  thread survives (worker pool, deadline monitors, drain pools).

Everything is seeded: client ``i`` derives its RNG from ``seed + i``,
so a run is reproducible edit-for-edit.  Generated formulas only
reference strictly lower-numbered cells, which rules out circular
references by construction while still building deep dependency chains.

``transport="inproc"`` calls :meth:`Server.handle` directly (measures
the serve stack without kernel sockets); ``transport="tcp"`` runs each
client over its own real TCP connection.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core import Runtime
from ..spreadsheet import Spreadsheet
from .config import ServeConfig
from .protocol import encode_line
from .server import Server

__all__ = [
    "LoadProfile",
    "LoadReport",
    "percentile",
    "run_load",
    "run_counter_scenario",
    "write_bench_record",
]


@dataclass
class LoadProfile:
    """One reproducible load shape."""

    clients: int = 100
    sessions: int = 10
    edits_per_client: int = 20
    seed: int = 1234
    rows: int = 8
    cols: int = 8
    #: Fraction of operations that are reads (rest are writes/batches).
    read_fraction: float = 0.3
    #: Fraction of *write* operations issued as multi-cell batches.
    batch_fraction: float = 0.25
    transport: str = "inproc"  # or "tcp"
    config: ServeConfig = field(default_factory=ServeConfig)

    def session_for(self, client: int) -> str:
        """Clients share sessions round-robin: s0, s1, ... — several
        clients concurrently editing each shared sheet."""
        return f"s{client % self.sessions}"


@dataclass
class LoadReport:
    """What a load run did and whether it was correct."""

    requests: int = 0
    rejected: int = 0
    retries: int = 0
    errors: int = 0
    elapsed_seconds: float = 0.0
    throughput_rps: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    max_ms: float = 0.0
    converged: bool = False
    mismatches: List[str] = field(default_factory=list)
    audit_violations: List[str] = field(default_factory=list)
    leaked_threads: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    #: The server's SLO ledger (``/healthz``'s ``slo`` object) captured
    #: at the end of the run, so a harness can assert objectives held —
    #: not just that the run converged.
    slo: Dict[str, Any] = field(default_factory=dict)
    sessions: int = 0
    clients: int = 0

    @property
    def clean(self) -> bool:
        """The acceptance predicate: converged, sound, and leak-free."""
        return (
            self.converged
            and not self.audit_violations
            and not self.leaked_threads
            and not self.errors
        )

    @property
    def slo_ok(self) -> bool:
        """Did every op hold its latency objective within budget?"""
        return bool(self.slo.get("ok", False))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "clients": self.clients,
            "sessions": self.sessions,
            "requests": self.requests,
            "rejected": self.rejected,
            "retries": self.retries,
            "errors": self.errors,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "throughput_rps": round(self.throughput_rps, 1),
            "latency_ms": {
                "p50": round(self.p50_ms, 3),
                "p99": round(self.p99_ms, 3),
                "max": round(self.max_ms, 3),
            },
            "converged": self.converged,
            "mismatches": self.mismatches[:10],
            "audit_violations": self.audit_violations[:10],
            "leaked_threads": self.leaked_threads,
            "clean": self.clean,
            "counters": self.counters,
            "slo": self.slo,
        }


def percentile(samples: List[float], q: float) -> float:
    """The q-th percentile (0..100) by nearest-rank, 0.0 when empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(q / 100 * (len(ordered) - 1))))
    return ordered[rank]


# ----------------------------------------------------------------------
# edit generation
# ----------------------------------------------------------------------


def _gen_formula(rng: random.Random, rows: int, cols: int) -> Tuple[int, int, Any]:
    """A random edit whose formula references only lower-index cells."""
    index = rng.randrange(rows * cols)
    row, col = divmod(index, cols)
    kind = rng.random()
    if kind < 0.35 or index == 0:
        return row, col, rng.randrange(100)
    refs = []
    for _ in range(rng.randrange(1, 3)):
        ref = rng.randrange(index)  # strictly lower index: no cycles
        refs.append(f"R{ref // cols}C{ref % cols}")
    terms = refs + [str(rng.randrange(10))]
    return row, col, " + ".join(terms)


# ----------------------------------------------------------------------
# client transports
# ----------------------------------------------------------------------


class _InprocClient:
    def __init__(self, server: Server) -> None:
        self._server = server

    async def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return await self._server.handle(dict(request))

    async def close(self) -> None:
        return None


class _TcpClient:
    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self._host, self._port, limit=1 << 20
            )
        self._writer.write(encode_line(request))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------


async def _client_task(
    profile: LoadProfile,
    client_id: int,
    transport: Any,
    latencies: List[float],
    report: LoadReport,
) -> None:
    rng = random.Random(profile.seed + client_id)
    sid = profile.session_for(client_id)
    rows, cols = profile.config.rows, profile.config.cols
    for seq in range(profile.edits_per_client):
        if rng.random() < profile.read_fraction:
            index = rng.randrange(rows * cols)
            request: Dict[str, Any] = {
                "op": "read",
                "session": sid,
                "row": index // cols,
                "col": index % cols,
                "staleness": "allow-stale",
            }
        elif rng.random() < profile.batch_fraction:
            cells = [
                list(_gen_formula(rng, rows, cols))
                for _ in range(rng.randrange(2, 5))
            ]
            request = {"op": "batch", "session": sid, "cells": cells}
        else:
            request = {
                "op": "write",
                "session": sid,
                "cells": [list(_gen_formula(rng, rows, cols))],
            }
        request["id"] = f"c{client_id}.{seq}"
        while True:
            started = time.perf_counter()
            response = await transport.call(request)
            latencies.append((time.perf_counter() - started) * 1000.0)
            report.requests += 1
            if response.get("ok"):
                break
            error = response.get("error") or {}
            if error.get("code") == 429:
                report.rejected += 1
                report.retries += 1
                await asyncio.sleep(error.get("retry_after", 0.02))
                continue
            report.errors += 1
            report.mismatches.append(
                f"client {client_id} seq {seq}: {error.get('message')}"
            )
            break
    await transport.close()


def _replay_serially(
    edits: List[List[Any]], rows: int, cols: int
) -> List[List[Any]]:
    """Ground truth: the same edit log applied on a fresh runtime."""
    rt = Runtime()
    with rt.active():
        sheet = Spreadsheet(rows, cols)
        for row, col, formula in edits:
            sheet.set_formula(row, col, formula)
        values = [
            [sheet.display(r, c) for c in range(cols)] for r in range(rows)
        ]
    rt.close()
    return values


async def _verify_and_shutdown(
    server: Server, profile: LoadProfile, report: LoadReport
) -> None:
    rows, cols = profile.config.rows, profile.config.cols
    for i in range(profile.sessions):
        sid = f"s{i}"
        log = await server.handle({"op": "log", "session": sid})
        dump = await server.handle({"op": "dump", "session": sid})
        audit_r = await server.handle({"op": "audit", "session": sid})
        if not (log.get("ok") and dump.get("ok") and audit_r.get("ok")):
            report.mismatches.append(f"{sid}: verification requests failed")
            continue
        report.audit_violations.extend(
            f"{sid}: {v}" for v in audit_r["result"]["violations"]
        )
        expected = _replay_serially(log["result"]["edits"], rows, cols)
        actual = dump["result"]["values"]
        for r in range(rows):
            for c in range(cols):
                if expected[r][c] != actual[r][c]:
                    report.mismatches.append(
                        f"{sid} R{r}C{c}: served {actual[r][c]!r} "
                        f"!= replay {expected[r][c]!r}"
                    )
    shutdown = await server.shutdown()
    if not shutdown.get("drained", False):
        report.mismatches.append("shutdown timed out draining in-flight work")


def run_load(profile: LoadProfile) -> LoadReport:
    """Run one seeded load shape end to end; see the module docstring."""
    report = LoadReport(clients=profile.clients, sessions=profile.sessions)
    latencies: List[float] = []
    threads_before = set(threading.enumerate())
    os.makedirs(profile.config.root, exist_ok=True)

    async def main() -> None:
        server = Server(profile.config)
        if profile.transport == "tcp":
            await server.start()
            transports = [
                _TcpClient(profile.config.host, server.port)
                for _ in range(profile.clients)
            ]
        else:
            transports = [_InprocClient(server) for _ in range(profile.clients)]
        started = time.perf_counter()
        await asyncio.gather(
            *(
                _client_task(profile, i, transports[i], latencies, report)
                for i in range(profile.clients)
            )
        )
        report.elapsed_seconds = time.perf_counter() - started
        report.counters = server.metrics.counters()
        report.slo = server.telemetry.slo.status()
        await _verify_and_shutdown(server, profile, report)

    asyncio.run(main())
    report.converged = not report.mismatches
    if report.elapsed_seconds > 0:
        report.throughput_rps = report.requests / report.elapsed_seconds
    report.p50_ms = percentile(latencies, 50)
    report.p99_ms = percentile(latencies, 99)
    report.max_ms = max(latencies) if latencies else 0.0
    # Give wound-down daemons (joined with timeouts) a beat to unwind
    # before declaring anything leaked.
    for _ in range(50):
        leaked = [
            t.name for t in threading.enumerate() if t not in threads_before
        ]
        if not leaked:
            break
        time.sleep(0.02)
    report.leaked_threads = leaked
    return report


# ----------------------------------------------------------------------
# deterministic counter scenario (the E17 regression gate)
# ----------------------------------------------------------------------


def run_counter_scenario(root: str) -> Dict[str, float]:
    """A scripted sequential session workload with exact counter totals.

    Timing-free by construction — requests are issued one at a time, the
    LRU order is fixed, and the rejections are forced by holding one
    session's mailbox at its limit — so the four serve counters land on
    the same values every run and can be regression-gated like any
    bench ops count.
    """
    config = ServeConfig(
        root=root,
        rows=4,
        cols=4,
        max_live_sessions=2,
        mailbox_limit=2,
        workers=2,
        watchdog_max_steps=None,
    )

    async def main() -> Dict[str, float]:
        server = Server(config)

        async def must(request: Dict[str, Any]) -> Dict[str, Any]:
            response = await server.handle(request)
            assert response.get("ok"), response
            return response["result"]

        write = {"op": "write", "cells": [[0, 0, 7]]}
        # Open four sessions against a residency limit of two: s2 evicts
        # s0, s3 evicts s1 (LRU, all idle).
        for sid in ("s0", "s1", "s2", "s3"):
            await must({**write, "session": sid})
        # Touch the evicted pair again: two resurrections, two more
        # evictions (of s2 and s3).
        for sid in ("s0", "s1"):
            result = await must({"op": "read", "session": sid, "row": 0, "col": 0})
            assert result["value"] == 7, result
        # Force deterministic 429s: pin s0's mailbox at its limit and
        # knock twice.
        server.sessions.inflight["s0"] = config.mailbox_limit
        for _ in range(2):
            response = await server.handle(
                {"op": "read", "session": "s0", "row": 0, "col": 0}
            )
            assert response["error"]["code"] == 429, response
            assert "retry_after" in response["error"]
        del server.sessions.inflight["s0"]
        counters = server.metrics.counters()
        await server.shutdown()
        return counters

    return asyncio.run(main())


def write_bench_record(
    path: str, record_id: str, payload: Dict[str, Any]
) -> None:
    """Merge one experiment record into a BENCH json file."""
    data: Dict[str, Any] = {}
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            data = {}
    data[record_id] = payload
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
