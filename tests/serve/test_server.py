"""Server dispatch: admission control, eviction, resurrection, shutdown.

Everything here drives :meth:`Server.handle` directly — the
transport-free core — inside ``asyncio.run`` (the suite has no async
test plugin, deliberately: each test owns its loop and the server's
whole lifecycle).
"""

import asyncio

from repro.serve import ServeConfig, Server
from repro.serve.loadgen import run_counter_scenario


def make_config(tmp_path, **kw):
    kw.setdefault("root", str(tmp_path / "state"))
    kw.setdefault("rows", 4)
    kw.setdefault("cols", 4)
    kw.setdefault("workers", 2)
    kw.setdefault("watchdog_max_steps", None)
    return ServeConfig(**kw)


def run(coro):
    return asyncio.run(coro)


class TestDispatch:
    def test_write_then_read(self, tmp_path):
        async def main():
            server = Server(make_config(tmp_path))
            write = await server.handle(
                {"op": "write", "session": "a", "cells": [[0, 0, 5]],
                 "id": "w1"}
            )
            assert write == {"id": "w1", "ok": True, "result": {"applied": 1}}
            read = await server.handle(
                {"op": "read", "session": "a", "row": 0, "col": 0}
            )
            assert read["result"]["value"] == 5
            await server.shutdown()

        run(main())

    def test_errors_become_responses_not_exceptions(self, tmp_path):
        async def main():
            server = Server(make_config(tmp_path))
            bad = await server.handle(
                {"op": "write", "session": "a", "cells": [[99, 0, 1]]}
            )
            assert bad["ok"] is False
            assert bad["error"]["code"] == 422
            unknown = await server.handle({"op": "zap"})
            assert unknown["error"]["code"] == 400
            assert server.metrics.errors.value == 2
            await server.shutdown()

        run(main())

    def test_concurrent_opens_of_one_session_dedupe(self, tmp_path):
        async def main():
            server = Server(make_config(tmp_path))
            responses = await asyncio.gather(
                *(
                    server.handle(
                        {"op": "write", "session": "s",
                         "cells": [[i % 4, i // 4, i]]}
                    )
                    for i in range(8)
                )
            )
            assert all(r["ok"] for r in responses)
            assert server.metrics.sessions_created.value == 1
            await server.shutdown()

        run(main())

    def test_global_ops(self, tmp_path):
        async def main():
            server = Server(make_config(tmp_path))
            await server.handle(
                {"op": "write", "session": "a", "cells": [[0, 0, 1]]}
            )
            health = await server.handle({"op": "healthz"})
            assert health["result"]["status"] == "ok"
            assert health["result"]["live_sessions"] == 1
            stats = await server.handle({"op": "server_stats"})
            assert stats["result"]["sessions"][0]["sid"] == "a"
            metrics = await server.handle({"op": "metrics"})
            assert "serve_requests_total" in metrics["result"]["prometheus"]
            await server.shutdown()

        run(main())


class TestAdmissionControl:
    def test_mailbox_full_is_429_with_retry_after(self, tmp_path):
        async def main():
            config = make_config(tmp_path, mailbox_limit=2, retry_after=0.5)
            server = Server(config)
            server.sessions.inflight["hot"] = 2  # pin at the limit
            response = await server.handle(
                {"op": "read", "session": "hot", "row": 0, "col": 0}
            )
            assert response["error"]["code"] == 429
            assert response["error"]["retry_after"] == 0.5
            assert server.metrics.rejections.value == 1
            # Other tenants are unaffected by the hot one's mailbox.
            ok = await server.handle(
                {"op": "write", "session": "cold", "cells": [[0, 0, 1]]}
            )
            assert ok["ok"]
            del server.sessions.inflight["hot"]
            await server.shutdown()

        run(main())

    def test_draining_rejects_with_503(self, tmp_path):
        async def main():
            server = Server(make_config(tmp_path))
            await server.handle(
                {"op": "write", "session": "a", "cells": [[0, 0, 1]]}
            )
            await server.shutdown()
            response = await server.handle(
                {"op": "read", "session": "a", "row": 0, "col": 0}
            )
            assert response["error"]["code"] == 503

        run(main())


class TestResidency:
    def test_lru_eviction_and_resurrection(self, tmp_path):
        async def main():
            server = Server(make_config(tmp_path, max_live_sessions=2))
            write = {"op": "write", "cells": [[0, 0, 7]]}
            for sid in ("s0", "s1", "s2"):
                assert (await server.handle({**write, "session": sid}))["ok"]
            # s0 was LRU and idle: evicted to disk, s1/s2 live.
            assert server.sessions.live == 2
            assert server.sessions.get("s0") is None
            assert server.metrics.evictions.value == 1
            # Touching s0 resurrects it (and evicts s1, now LRU).
            read = await server.handle(
                {"op": "read", "session": "s0", "row": 0, "col": 0}
            )
            assert read["result"]["value"] == 7
            assert server.metrics.resurrections.value == 1
            assert server.sessions.get("s1") is None
            await server.shutdown()

        run(main())

    def test_busy_sessions_overflow_then_shrink(self, tmp_path):
        async def main():
            server = Server(make_config(tmp_path, max_live_sessions=1))
            await server.handle(
                {"op": "write", "session": "busy", "cells": [[0, 0, 1]]}
            )
            # Pin "busy" as having an in-flight request: opening another
            # session cannot evict it, so the live set overflows.
            server.sessions.inflight["busy"] = 1
            await server.handle(
                {"op": "write", "session": "other", "cells": [[0, 0, 2]]}
            )
            assert server.sessions.live == 2
            assert server.metrics.evictions.value == 0
            del server.sessions.inflight["busy"]
            # The next completed request evicts the idle overflow.
            await server.handle(
                {"op": "read", "session": "other", "row": 0, "col": 0}
            )
            await asyncio.gather(*server._bg_tasks)
            assert server.sessions.live == 1
            assert server.metrics.evictions.value == 1
            await server.shutdown()

        run(main())


class TestShutdown:
    def test_shutdown_checkpoints_and_is_idempotent(self, tmp_path):
        async def main():
            config = make_config(tmp_path)
            server = Server(config)
            await server.handle(
                {"op": "write", "session": "a", "cells": [[1, 1, 13]]}
            )
            first = await server.shutdown()
            assert first == {"closed": True, "sessions_closed": 1,
                             "drained": True}
            second = await server.shutdown()
            assert second["sessions_closed"] == 0
            # The checkpoint is complete: a fresh server resurrects it.
            revived = Server(config)
            read = await revived.handle(
                {"op": "read", "session": "a", "row": 1, "col": 1}
            )
            assert read["result"]["value"] == 13
            assert revived.metrics.resurrections.value == 1
            await revived.shutdown()

        run(main())

    def test_shutdown_op_over_protocol(self, tmp_path):
        async def main():
            server = Server(make_config(tmp_path))
            response = await server.handle({"op": "shutdown"})
            assert response["result"] == {"draining": True}
            await asyncio.gather(*server._bg_tasks)
            assert server.closed

        run(main())


def test_counter_scenario_is_deterministic(tmp_path):
    first = run_counter_scenario(str(tmp_path / "a"))
    second = run_counter_scenario(str(tmp_path / "b"))
    expected = {
        "requests_served": 6,
        "rejections": 2,
        "evictions": 4,
        "resurrections": 2,
    }
    assert first == expected
    assert second == expected
