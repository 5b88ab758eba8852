"""Cross-layer tracing, flight dumps, SLOs: the serve observability slice."""

import asyncio
import json
import os

from repro.ag.expr import Exp
from repro.core import maintained
from repro.core.events import EventKind
from repro.obs.trace import TraceContext, current_trace, trace_scope
from repro.serve import ServeConfig, Server, SloTracker, WorkerPool
from repro.serve.loadgen import LoadProfile, run_load


class _Exploding(Exp):
    """A formula whose body always raises — poisons its cell on force."""

    @maintained
    def value(self):
        raise RuntimeError("boom")


def make_config(tmp_path, **kw):
    kw.setdefault("root", str(tmp_path / "state"))
    kw.setdefault("rows", 4)
    kw.setdefault("cols", 4)
    kw.setdefault("workers", 2)
    kw.setdefault("watchdog_max_steps", None)
    return ServeConfig(**kw)


def run(coro):
    return asyncio.run(coro)


class TestWorkerPoolShim:
    def test_job_runs_in_submitters_context(self):
        pool = WorkerPool(1)
        try:
            with trace_scope(TraceContext(trace_id="t-pool")):
                future = pool.submit(
                    "k", lambda: getattr(current_trace(), "trace_id", None)
                )
            assert future.result(timeout=5) == "t-pool"
            # Outside any scope the worker sees none either.
            bare = pool.submit("k", current_trace)
            assert bare.result(timeout=5) is None
        finally:
            pool.close()


class TestTraceIds:
    def test_error_responses_carry_trace_and_request_ids(self, tmp_path):
        async def main():
            server = Server(make_config(tmp_path))
            bad = await server.handle(
                {"op": "write", "session": "a", "cells": [[99, 0, 1]],
                 "id": "req-7"}
            )
            assert bad["ok"] is False
            assert bad["error"]["code"] == 422
            assert bad["error"]["request_id"] == "req-7"
            assert bad["error"]["trace_id"]
            # No client id: the server mints a request_id anyway.
            anon = await server.handle({"op": "zap"})
            assert anon["error"]["code"] == 400
            assert anon["error"]["request_id"]
            await server.shutdown()

        run(main())

    def test_429_carries_request_id_alongside_retry_after(self, tmp_path):
        async def main():
            config = make_config(tmp_path, mailbox_limit=1, retry_after=0.25)
            server = Server(config)
            server.sessions.inflight["hot"] = 1
            response = await server.handle(
                {"op": "read", "session": "hot", "row": 0, "col": 0,
                 "id": "burst-1"}
            )
            assert response["error"]["code"] == 429
            assert response["error"]["retry_after"] == 0.25
            assert response["error"]["request_id"] == "burst-1"
            assert response["error"]["trace_id"]
            del server.sessions.inflight["hot"]
            await server.shutdown()

        run(main())

    def test_unparsable_line_still_gets_ids(self, tmp_path):
        async def main():
            server = Server(make_config(tmp_path))
            response = await server.handle_line(b"not json")
            assert response["error"]["code"] == 400
            assert response["error"]["trace_id"]
            await server.shutdown()

        run(main())

    def test_trace_knob_enables_session_spans(self, tmp_path):
        async def main():
            server = Server(make_config(tmp_path, trace=True))
            await server.handle(
                {"op": "write", "session": "a", "cells": [[0, 0, 5]]}
            )
            read = await server.handle(
                {"op": "read", "session": "a", "row": 0, "col": 0,
                 "id": "r1"}
            )
            assert read["ok"]
            session = server.sessions.get("a")
            assert EventKind.EXECUTION_STARTED in session.flight.watching
            spans = session.runtime.obs.tracer.spans()
            assert spans, "trace=True must record spans"
            # Spans opened while serving carry the originating
            # request's ids in their meta.
            tagged = [s for s in spans if "trace_id" in s.meta]
            assert tagged
            assert any(s.meta.get("request_id") == "r1" for s in tagged)
            await server.shutdown()

        run(main())

    def test_trace_off_by_default(self, tmp_path):
        async def main():
            server = Server(make_config(tmp_path))
            await server.handle(
                {"op": "write", "session": "a", "cells": [[0, 0, 5]]}
            )
            session = server.sessions.get("a")
            assert EventKind.EXECUTION_STARTED not in session.flight.watching
            # ... but the ring is always on.
            assert session.flight._bus is session.runtime.events
            await server.shutdown()

        run(main())


class TestFourLayerStitch:
    def test_one_request_spans_all_four_layers(self, tmp_path):
        """The acceptance criterion, in-process: a single read's
        trace_id appears on server-accept, dispatch-hop, session-op,
        and runtime-drain events of the stitched Chrome trace."""

        async def main():
            server = Server(make_config(tmp_path, trace=True))
            # Prime the dependent cell, dirty its input, then issue the
            # traced read: serving it forces a real change-propagation
            # drain (a first read only demand-evaluates).
            await server.handle(
                {"op": "write", "session": "a",
                 "cells": [[0, 0, 3], [0, 1, "R0C0 + 4"]]}
            )
            await server.handle(
                {"op": "read", "session": "a", "row": 0, "col": 1}
            )
            await server.handle(
                {"op": "write", "session": "a", "cells": [[0, 0, 10]]}
            )
            read = await server.handle(
                {"op": "read", "session": "a", "row": 0, "col": 1,
                 "id": "the-read"}
            )
            assert read["ok"] and read["result"]["value"] == 14
            trace = server.export_chrome()
            events = trace["traceEvents"]
            target = [
                e for e in events
                if e["args"].get("request_id") == "the-read"
            ]
            trace_ids = {e["args"]["trace_id"] for e in target}
            assert len(trace_ids) == 1, "one request, one trace id"
            layers = {e["cat"] for e in target}
            assert {"request", "dispatch", "session-op", "drain"} <= layers
            await server.shutdown()

        run(main())


class TestSloSurface:
    def test_tracker_counts_and_burn(self):
        tracker = SloTracker(
            default_ms=100.0, overrides={"snapshot": 1000.0},
            error_budget=0.5,
        )
        assert not tracker.observe("read", 0.05)
        assert tracker.observe("read", 0.2)
        assert not tracker.observe("snapshot", 0.5)
        status = tracker.status()
        assert status["requests"] == 3
        assert status["breaches"] == 1
        assert status["ops"]["read"]["objective_ms"] == 100.0
        assert status["ops"]["read"]["breaches"] == 1
        assert status["ops"]["read"]["burn"] == 1.0  # 0.5 ratio / 0.5 budget
        assert status["ops"]["read"]["ok"]
        assert status["ops"]["snapshot"]["ok"]
        assert status["ok"]

    def test_healthz_reports_objective_status(self, tmp_path):
        async def main():
            server = Server(make_config(tmp_path))
            await server.handle(
                {"op": "write", "session": "a", "cells": [[0, 0, 1]]}
            )
            health = await server.handle({"op": "healthz"})
            slo = health["result"]["slo"]
            assert slo["ok"] is True
            assert slo["ops"]["write"]["requests"] == 1
            assert slo["ops"]["write"]["breaches"] == 0
            await server.shutdown()

        run(main())

    def test_impossible_objective_burns_budget(self, tmp_path):
        async def main():
            # A nanosecond objective: every request breaches.
            server = Server(make_config(tmp_path, slo_ms=1e-6))
            await server.handle(
                {"op": "write", "session": "a", "cells": [[0, 0, 1]]}
            )
            health = await server.handle({"op": "healthz"})
            slo = health["result"]["slo"]
            assert slo["ops"]["write"]["breaches"] == 1
            assert not slo["ops"]["write"]["ok"]
            assert server.metrics.slo_breaches.value >= 1
            await server.shutdown()

        run(main())

    def test_load_report_captures_slo(self, tmp_path):
        profile = LoadProfile(
            clients=4,
            sessions=2,
            edits_per_client=4,
            config=make_config(tmp_path, max_live_sessions=4),
        )
        report = run_load(profile)
        assert report.clean
        assert report.slo_ok, report.slo
        assert report.to_dict()["slo"]["requests"] > 0


class TestFlightDumpsAndDebug:
    def test_debug_op_returns_ring(self, tmp_path):
        async def main():
            server = Server(make_config(tmp_path))
            await server.handle(
                {"op": "write", "session": "a", "cells": [[0, 0, 1]]}
            )
            debug = await server.handle({"op": "debug", "session": "a"})
            result = debug["result"]
            assert result["sid"] == "a"
            assert result["recorded"] > 0
            assert result["records"]
            # Bus-captured records carry the originating request's ids.
            assert any("trace_id" in r for r in result["records"])
            dumped = await server.handle(
                {"op": "debug", "session": "a", "dump": True}
            )
            assert os.path.exists(dumped["result"]["path"])
            await server.shutdown()

        run(main())

    def test_http_debug_routes(self, tmp_path):
        async def main():
            server = Server(make_config(tmp_path))
            await server.handle(
                {"op": "write", "session": "a", "cells": [[0, 0, 1]]}
            )
            live = server._http_get("/debug/a").decode("utf-8")
            assert live.startswith("HTTP/1.1 200")
            body = json.loads(live.split("\r\n\r\n", 1)[1])
            assert body["scope"] == "a"
            assert body["records"]
            missing = server._http_get("/debug/ghost").decode("utf-8")
            assert missing.startswith("HTTP/1.1 404")
            top = server._http_get("/debug").decode("utf-8")
            assert top.startswith("HTTP/1.1 200")
            server_body = json.loads(top.split("\r\n\r\n", 1)[1])
            assert server_body["scope"] == "server"
            assert any(
                r["kind"] == "request" for r in server_body["records"]
            )
            await server.shutdown()

        run(main())

    def test_eviction_with_poison_dumps_flight(self, tmp_path):
        async def main():
            config = make_config(tmp_path, max_live_sessions=1)
            server = Server(config)
            # Poison a cell: an exploding formula body is contained as
            # a Poisoned value when the degraded read forces it.
            await server.handle(
                {"op": "write", "session": "sick", "cells": [[0, 1, 2]]}
            )
            session = server.sessions.get("sick")
            with session.runtime.active():
                session.sheet.set_formula(0, 0, _Exploding())
            degraded = await server.handle(
                {"op": "read", "session": "sick", "row": 0, "col": 0,
                 "staleness": "allow-stale"}
            )
            assert degraded["ok"] and degraded["result"]["stale"]
            assert session.runtime._poison_live > 0
            # Opening another tenant evicts "sick" while poisoned, behind
            # the reply: wait for the queued close before reading files.
            await server.handle(
                {"op": "write", "session": "other", "cells": [[0, 0, 1]]}
            )
            assert server.sessions.get("sick") is None
            await server.sessions.wait_closed()
            path = os.path.join(config.root, "sick", "flight.jsonl")
            assert os.path.exists(path)
            with open(path, encoding="utf-8") as fh:
                header = json.loads(fh.readline())
            assert header["flight_dump"] == "eviction-with-poison"
            assert header["sid"] == "sick"
            await server.shutdown()

        run(main())

    def test_clean_eviction_does_not_dump(self, tmp_path):
        async def main():
            config = make_config(tmp_path, max_live_sessions=1)
            server = Server(config)
            await server.handle(
                {"op": "write", "session": "healthy", "cells": [[0, 0, 1]]}
            )
            await server.handle(
                {"op": "write", "session": "other", "cells": [[0, 0, 2]]}
            )
            assert server.sessions.get("healthy") is None
            await server.sessions.wait_closed()
            assert not os.path.exists(
                os.path.join(config.root, "healthy", "flight.jsonl")
            )
            await server.shutdown()

        run(main())

    def test_watchdog_trip_dumps_flight(self, tmp_path):
        async def main():
            config = make_config(tmp_path, watchdog_max_steps=2)
            server = Server(config)
            # Prime a dependency chain, then dirty its root: the next
            # read's drain needs more steps than the budget allows.
            cells = [[0, 0, 1]] + [
                [0, c, f"R0C{c - 1} + 1"] for c in range(1, 4)
            ]
            await server.handle(
                {"op": "write", "session": "a", "cells": cells}
            )
            primed = await server.handle(
                {"op": "read", "session": "a", "row": 0, "col": 3}
            )
            assert primed["ok"] and primed["result"]["value"] == 4
            await server.handle(
                {"op": "write", "session": "a", "cells": [[0, 0, 5]]}
            )
            tripped = await server.handle(
                {"op": "read", "session": "a", "row": 0, "col": 3}
            )
            assert tripped["ok"] is False
            path = os.path.join(config.root, "a", "flight.jsonl")
            assert os.path.exists(path)
            with open(path, encoding="utf-8") as fh:
                lines = [json.loads(l) for l in fh if l.strip()]
            assert lines[0]["flight_dump"] == "watchdog-tripped"
            assert any(
                r["kind"] == "watchdog-tripped" for r in lines[1:]
            ), "the trigger event itself must be in the dump"
            # The tripped session still holds pending work its budget
            # cannot drain: its close re-trips, which shutdown reports
            # as a ``close-failed`` note and finishes anyway.
            await server.shutdown()
            assert server.closed

        run(main())

    def test_shutdown_dumps_server_flight(self, tmp_path):
        async def main():
            config = make_config(tmp_path)
            server = Server(config)
            await server.handle(
                {"op": "write", "session": "a", "cells": [[0, 0, 1]]}
            )
            await server.shutdown()
            path = os.path.join(config.root, "flight-server.jsonl")
            assert os.path.exists(path)
            with open(path, encoding="utf-8") as fh:
                lines = [json.loads(l) for l in fh if l.strip()]
            assert lines[0]["flight_dump"] == "shutdown"
            assert lines[0]["slo"]["requests"] >= 1
            kinds = {r["kind"] for r in lines[1:]}
            assert {"request", "dispatch"} <= kinds

        run(main())
