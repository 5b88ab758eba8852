"""CI serve smoke: boot the server, burst it, assert a clean run.

The serve-smoke CI job's entry point.  Runs a seeded loadgen burst over
TCP against a freshly booted server plus the deterministic lifecycle
scenario, and asserts:

* zero invariant-audit failures across every session touched;
* convergence — served grids equal a serial replay of each session's
  edit log;
* graceful drain-then-checkpoint shutdown with zero leaked threads;
* the lifecycle counters land on their exact expected values;
* the load run stayed inside its latency SLOs;
* one traced TCP request stitches into a single Chrome timeline that
  spans all four layers (server accept, dispatch hop, session op,
  runtime drain) under one ``trace_id``;
* a ``/metrics`` scrape after an eviction and a resurrection counts
  every recovery: ``alphonse_recoveries_total`` equals
  ``serve_resurrections_total`` and is not zero; and the bodies a
  resurrected session ran were timed: ``alphonse_executions_total`` is
  not zero and equals the sum of the ``alphonse_execution_seconds::*``
  counts; once the queued eviction closes have run,
  ``serve_sessions_live`` reads 1 on the one-session server, and the
  collector-pause series ``serve_gc_pause_seconds::gen0|1|2`` are
  exported, with a forced full collection counted in ``gen2``.

Writes a machine-readable summary (for the CI artifact) to
``serve_smoke_report.json`` (or the path given as argv[1]), a
``BENCH_serve.json`` next to it, and the observability artifacts
(``serve_trace.json`` plus the flight-recorder dumps) into the same
directory for CI upload.  Exit status 0 means every assertion held.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py [report.json]
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

from repro.serve import LoadProfile, ServeConfig, Server, run_load  # noqa: E402
from repro.serve.loadgen import (  # noqa: E402
    run_counter_scenario,
    write_bench_record,
)
from repro.serve.protocol import encode_line  # noqa: E402

EXPECTED_COUNTERS = {
    "requests_served": 6,
    "rejections": 2,
    "evictions": 4,
    "resurrections": 2,
}

TRACE_LAYERS = {"request", "dispatch", "session-op", "drain"}


async def _metrics_scenario(root: str) -> list:
    """Evict and resurrect tenants on a one-session server, run bodies
    only on a resurrected one, then scrape ``/metrics`` over HTTP: every
    resurrection is a recovery the engine counted, so the two series
    must agree, and a resurrected runtime times its bodies, so the
    execution series are not zero.  Evictions run behind the replies, so
    the scrape waits for their closes, after which one session is live;
    a forced full collection must show in the gen-2 pause series."""
    config = ServeConfig(root=root, rows=4, cols=4, max_live_sessions=1)
    server = await Server(config).start()
    requests = [
        {"op": "write", "session": sid, "cells": [[0, 0, 1]]}
        for sid in ("a", "b", "a", "b")
    ] + [
        {"op": "write", "session": "b", "cells": [[0, 1, "R0C0 + 1"]]},
        {"op": "read", "session": "b", "row": 0, "col": 1},
    ]
    for request in requests:
        response = await server.handle(request)
        if not response.get("ok"):
            await server.shutdown()
            return [f"metrics scenario {request['op']} failed: {response}"]
    await server.sessions.wait_closed()
    gc.collect()
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    writer.write(b"GET /metrics HTTP/1.1\r\nHost: smoke\r\n\r\n")
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    await server.shutdown()
    series = dict(
        line.split(" ", 1)
        for line in raw.decode().partition("\r\n\r\n")[2].splitlines()
        if line and not line.startswith("#")
    )
    failures = []
    live = series.get("serve_sessions_live")
    if live is None or float(live) != 1:
        failures.append(
            f"/metrics: serve_sessions_live {live} after the evictions "
            f"ran (want 1, the limit)"
        )
    for generation in range(3):
        name = f"serve_gc_pause_seconds::gen{generation}_count"
        if name not in series:
            failures.append(f"/metrics: no {name} series")
    if float(series.get("serve_gc_pause_seconds::gen2_count", 0)) < 1:
        failures.append(
            "/metrics: a forced full collection is missing from "
            "serve_gc_pause_seconds::gen2"
        )
    recoveries = float(series.get("alphonse_recoveries_total", 0))
    resurrections = float(series.get("serve_resurrections_total", 0))
    if not recoveries or recoveries != resurrections:
        failures.append(
            f"/metrics: alphonse_recoveries_total {recoveries} != "
            f"serve_resurrections_total {resurrections} (both must be > 0)"
        )
    executions = float(series.get("alphonse_executions_total", 0))
    timed = sum(
        float(value)
        for name, value in series.items()
        if name.startswith("alphonse_execution_seconds::")
        and name.endswith("_count")
    )
    if not executions or executions != timed:
        failures.append(
            f"/metrics: alphonse_executions_total {executions} != "
            f"{timed} timed by alphonse_execution_seconds (both must be > 0)"
        )
    return failures


async def _trace_scenario(root: str, artifact_dir: str) -> list:
    """One traced request over real TCP, stitched across all layers.

    Primes a dependent cell, dirties its input, then reads it with a
    client-supplied id: serving that read forces a change-propagation
    drain, so the exported Chrome trace must show the request on every
    layer — the server's request span, the dispatch hop, the session
    op, and the runtime drain — all under one ``trace_id``.
    """
    failures = []
    config = ServeConfig(root=root, rows=4, cols=4, workers=2, trace=True)
    server = await Server(config).start()
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)

    async def call(request):
        writer.write(encode_line(request))
        await writer.drain()
        return json.loads(await reader.readline())

    await call(
        {"op": "write", "session": "a",
         "cells": [[0, 0, 3], [0, 1, "R0C0 + 4"]]}
    )
    await call({"op": "read", "session": "a", "row": 0, "col": 1})
    await call({"op": "write", "session": "a", "cells": [[0, 0, 10]]})
    read = await call(
        {"op": "read", "session": "a", "row": 0, "col": 1,
         "id": "smoke-trace"}
    )
    if not (read.get("ok") and read["result"]["value"] == 14):
        failures.append(f"traced read drifted: {read}")
    debug = await call({"op": "debug", "session": "a", "dump": True})
    writer.close()
    await writer.wait_closed()

    chrome = server.export_chrome()
    ours = [
        e
        for e in chrome["traceEvents"]
        if e.get("args", {}).get("request_id") == "smoke-trace"
    ]
    layers = {e["cat"] for e in ours}
    missing = TRACE_LAYERS - layers
    if missing:
        failures.append(
            f"trace missing layers {sorted(missing)} (saw {sorted(layers)})"
        )
    trace_ids = {e["args"].get("trace_id") for e in ours}
    if len(trace_ids) != 1 or None in trace_ids:
        failures.append(f"expected one trace_id across layers: {trace_ids}")

    with open(
        os.path.join(artifact_dir, "serve_trace.json"), "w", encoding="utf-8"
    ) as fh:
        json.dump(chrome, fh, indent=2)
        fh.write("\n")

    await server.shutdown()
    # Keep the flight dumps (shutdown wrote the server's; the debug op
    # wrote session a's) beyond the tempdir for the CI artifact.
    for src, name in (
        (os.path.join(root, "flight-server.jsonl"), "flight-server.jsonl"),
        (debug.get("result", {}).get("path"), "flight-session-a.jsonl"),
    ):
        if src and os.path.exists(src):
            shutil.copy(src, os.path.join(artifact_dir, name))
        else:
            failures.append(f"flight dump missing: {src}")
    return failures


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    report_path = argv[0] if argv else "serve_smoke_report.json"
    bench_path = os.path.join(
        os.path.dirname(report_path) or ".", "BENCH_serve.json"
    )
    failures = []

    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as td:
        counters = run_counter_scenario(os.path.join(td, "counters"))
        if counters != EXPECTED_COUNTERS:
            failures.append(
                f"lifecycle counters drifted: {counters} != {EXPECTED_COUNTERS}"
            )

        profile = LoadProfile(
            clients=60,
            sessions=8,
            edits_per_client=10,
            seed=2026,
            transport="tcp",
            config=ServeConfig(
                root=os.path.join(td, "state"),
                rows=8,
                cols=8,
                max_live_sessions=6,
                mailbox_limit=8,
                workers=4,
                slo_ms=1000.0,  # generous: CI asserts the plumbing, not speed
            ),
        )
        load = run_load(profile)
        if not load.converged:
            failures.append(f"load run did not converge: {load.mismatches[:5]}")
        if load.audit_violations:
            failures.append(
                f"invariant audit failed: {load.audit_violations[:5]}"
            )
        if load.leaked_threads:
            failures.append(f"threads leaked: {load.leaked_threads}")
        if load.errors:
            failures.append(f"{load.errors} request errors")
        if not load.slo.get("requests"):
            failures.append("SLO surface saw no requests")
        if not load.slo_ok:
            failures.append(f"load run burned its SLO budget: {load.slo}")

        failures.extend(
            asyncio.run(_metrics_scenario(os.path.join(td, "metrics")))
        )
        artifact_dir = os.path.dirname(report_path) or "."
        failures.extend(
            asyncio.run(
                _trace_scenario(os.path.join(td, "trace"), artifact_dir)
            )
        )

    summary = {
        "lifecycle_counters": counters,
        "load": load.to_dict(),
        "failures": failures,
        "ok": not failures,
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    write_bench_record(
        bench_path, "E17", {"title": "serve lifecycle counters",
                            "counters": {"ops": counters}}
    )
    write_bench_record(bench_path, "E17L", load.to_dict())

    print(json.dumps(summary["load"]["latency_ms"], indent=2))
    for failure in failures:
        print(f"serve smoke FAILED: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"serve smoke OK — {load.requests} requests over TCP, "
            f"{load.counters['evictions']:.0f} evictions, "
            f"p99 {load.p99_ms:.2f} ms, slo burn {load.slo['burn']:.3f}, "
            f"trace stitched across {len(TRACE_LAYERS)} layers",
            file=sys.stderr,
        )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
