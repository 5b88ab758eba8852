"""E19 — WAL shipping to a warm standby, and what failover costs.

Two claims, two records (both published to ``BENCH_serve.json``):

* **E19 (gated)** — the replication stream is deterministic.  A
  scripted scenario (two sessions, a fixed edit sequence, one
  semi-sync in-process link) must land on exactly the same
  shipped / acked / applied record totals, zero gaps, the scripted
  number of resyncs, and the same promoted-session / replayed-record
  counts every run; ``check_regression.py`` gates them like any op
  count.  Drift here means the shipper started sending different
  *records* — not just different wall-clock.
* **E19R (reported)** — what shipping costs and what failover takes:
  the steady-state overhead ratio of a served write workload
  (``Server.handle``, the level a tenant's SLO sees) with a semi-sync
  link attached vs. detached — target <= 1.10, asserted at 1.35 for
  machine noise, like E16/E18 — plus the raw per-edit shipping cost at
  the session layer, and the wall-clock time and replayed-record count
  for promoting a standby root left with a WAL tail.  Wall-clock
  numbers are machine-dependent and not gated.
"""

import asyncio
import os
import tempfile
import threading
import time

from repro.replicate.promote import promote_root
from repro.replicate.shipper import InprocLink, LinkDown, Shipper
from repro.replicate.standby import StandbyApplier
from repro.resil import RetryPolicy
from repro.serve import ServeConfig
from repro.serve.session import Session

from .tableio import emit

BENCH_SERVE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_serve.json")

OVERHEAD_EDITS = 300
TRIALS = 3


def _config(root, **kw):
    kw.setdefault("root", root)
    kw.setdefault("rows", 8)
    kw.setdefault("cols", 8)
    kw.setdefault("watchdog_max_steps", None)
    return ServeConfig(**kw)


def _pair(standby_root, **kw):
    applier = StandbyApplier(standby_root, warm_every=0)
    retry = RetryPolicy(
        max_attempts=3, base_delay=0.0, retry_on=LinkDown,
        sleep=lambda s: None,
    )
    shipper = Shipper([InprocLink(applier.apply)], retry=retry, **kw)
    return applier, shipper


def _in_thread(fn):
    """Run ``fn`` on a fresh thread (same rationale as E14/E16/E18:
    both sides of a ratio get the same shallow frame stack)."""
    box = []

    def runner():
        try:
            box.append((True, fn()))
        except BaseException as exc:
            box.append((False, exc))

    worker = threading.Thread(target=runner)
    worker.start()
    worker.join()
    ok, payload = box[0]
    if not ok:
        raise payload
    return payload


def test_e19_replication_counters(tmp_path):
    """The scripted stream lands on exact totals, every run."""
    standby_root = str(tmp_path / "standby")
    applier, shipper = _pair(standby_root)
    config = _config(str(tmp_path / "primary"), rows=4, cols=4)

    # Fixed script: 4 single-cell writes and one 2-cell batch on "a",
    # 3 single-cell writes on "b".  Every write ships one WAL record
    # (its set_formula record, which also carries the edit history);
    # the batch ships one WAL record per cell; each session opens with
    # one attach resync.
    a = Session.open("a", config, shipper=shipper)
    for col in range(4):
        a.apply({"op": "write", "cells": [[0, col, str(col + 1)]]})
    a.apply({"op": "batch", "cells": [[1, 0, "R0C0 + 1"],
                                      [1, 1, "R0C1 + R0C2"]]})
    b = Session.open("b", config, shipper=shipper)
    for col in range(3):
        b.apply({"op": "write", "cells": [[0, col, str(col * 2)]]})
    # Close without a checkpoint: the standby keeps the WAL tail, so
    # the promotion below exercises (and counts) the replay path.
    for session in (a, b):
        session.close(checkpoint=False, reason="bench")

    shipped = shipper.status()
    applied = applier.status()
    report, _ = promote_root(standby_root)

    counters = {
        "records_shipped": shipped["links"][0]["shipped_records"],
        "records_acked": sum(
            shipped["links"][0]["acked_lsn"].values()
        ),
        "records_applied": applied["applied_records"],
        "resyncs": applied["resyncs"],
        "gaps": applied["gaps"],
        "lag_records": shipped["lag_records"],
        "sessions_promoted": report.sessions,
        "replayed_records": report.replayed_records,
    }
    shipper.close()
    applier.close()

    emit(
        "E19",
        "replication stream counters (deterministic scripted scenario)",
        ["counter", "value"],
        sorted(counters.items()),
        counters={"ops": counters},
    )
    from repro.serve.loadgen import write_bench_record

    write_bench_record(
        BENCH_SERVE_PATH,
        "E19",
        {"title": "replication stream counters",
         "counters": {"ops": counters}},
    )
    assert counters["gaps"] == 0
    assert counters["lag_records"] == 0
    assert counters["records_shipped"] == counters["records_acked"]
    assert counters["sessions_promoted"] == 2
    assert report.ok


def _served_loop(root, with_link):
    """Best-of-TRIALS wall clock for OVERHEAD_EDITS served writes.

    Boots a real :class:`~repro.serve.server.Server` with its TCP
    listener and drives one session sequentially over a loopback
    connection — the latency a tenant's SLO sees.  Both sides of the
    ratio pay the same transport, dispatch, admission, and worker-hop
    costs and differ only in the semi-sync link.
    """
    import json as _json

    from repro.serve import Server
    from repro.serve.protocol import encode_line

    applier = None
    links = ()
    if with_link:
        applier = StandbyApplier(os.path.join(root, "standby"), warm_every=0)
        links = (InprocLink(applier.apply),)
    config = _config(
        os.path.join(root, "primary"), workers=2, replica_links=links
    )
    rows, cols = config.rows, config.cols

    async def main():
        server = await Server(config).start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )

        async def cycle():
            for i in range(OVERHEAD_EDITS):
                index = i % (rows * cols)
                writer.write(encode_line(
                    {"op": "write", "session": "s",
                     "cells": [[index // cols, index % cols, str(i)]]}
                ))
                await writer.drain()
                response = _json.loads(await reader.readline())
                assert response["ok"], response

        await cycle()  # warm-up: allocator and parse-cache costs
        best = None
        for _ in range(TRIALS):
            t0 = time.perf_counter()
            await cycle()
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        writer.close()
        await writer.wait_closed()
        await server.shutdown()
        return best

    best = asyncio.run(main())
    if applier is not None:
        applier.close()
    return best


def _session_edit_cost(tmp_path):
    """Raw per-edit wall clock at the session layer with shipping on,
    leaving the standby root with a WAL tail for the promotion probe."""
    standby_root = str(tmp_path / "promote-standby")
    applier, shipper = _pair(standby_root)
    config = _config(str(tmp_path / "promote-primary"))
    session = Session.open("s", config, shipper=shipper)
    rows, cols = config.rows, config.cols
    t0 = time.perf_counter()
    for i in range(OVERHEAD_EDITS):
        index = i % (rows * cols)
        session.apply(
            {"op": "write",
             "cells": [[index // cols, index % cols, str(i)]]}
        )
    elapsed = time.perf_counter() - t0
    # No closing checkpoint: the replica keeps its WAL tail, so the
    # promotion below pays (and reports) a real replay.
    session.close(checkpoint=False, reason="bench")
    shipper.close()
    applier.close()
    return elapsed / OVERHEAD_EDITS * 1e6, standby_root


def test_e19r_shipping_overhead_and_promotion(tmp_path):
    """Semi-sync shipping stays inside its overhead budget; promotion
    of a standby with a real WAL tail is measured, not gated."""

    def run_off():
        with tempfile.TemporaryDirectory(prefix="e19-off-") as td:
            return _served_loop(td, False)

    def run_on():
        with tempfile.TemporaryDirectory(prefix="e19-on-") as td:
            return _served_loop(td, True)

    run_off()  # process warm-up
    off_time = on_time = None
    for _ in range(TRIALS):
        t = _in_thread(run_off)
        off_time = t if off_time is None else min(off_time, t)
        t = _in_thread(run_on)
        on_time = t if on_time is None else min(on_time, t)
    ratio = on_time / max(off_time, 1e-9)

    per_edit_us, standby_root = _session_edit_cost(tmp_path)
    started = time.perf_counter()
    report, _ = promote_root(standby_root)
    promotion_s = time.perf_counter() - started
    assert report.ok and report.sessions == 1
    assert report.replayed_records > 0
    emit(
        "E19R",
        "semi-sync shipping overhead and promotion cost",
        ["metric", "value"],
        [
            ("overhead_ratio", round(ratio, 3)),
            ("edit_us_shipping", round(per_edit_us, 1)),
            ("promotion_ms", round(promotion_s * 1000.0, 3)),
            ("promotion_replayed", report.replayed_records),
        ],
    )
    from repro.serve.loadgen import write_bench_record

    write_bench_record(
        BENCH_SERVE_PATH,
        "E19R",
        {
            "title": "semi-sync shipping overhead and promotion cost",
            "overhead_ratio": round(ratio, 3),
            "overhead_target": 1.10,
            "edit_us_shipping": round(per_edit_us, 1),
            "promotion_ms": round(promotion_s * 1000.0, 3),
            "promotion_replayed": report.replayed_records,
        },
    )
    # target is <= 1.10; the assert leaves slack for machine noise
    assert ratio < 1.35, ratio
