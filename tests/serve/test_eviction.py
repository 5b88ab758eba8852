"""Eviction behind the reply, and a closed tenant freed by reference
counting.

A cold request opens its session at once and its reply does not wait
for the victim it displaces: the least-recently-used idle session is
evicted when the request completes, its close queued on its own worker.
Closing a session tears its graph and sheet down, so the collector
finds nothing of it.
"""

import asyncio
import gc
import os
import threading

from repro.obs import MetricsRegistry
from repro.serve import ServeConfig, Server, Session

from .test_replication_server import resync, sheet_checkpoint
from .test_session import _layered


def make_config(tmp_path, **kw):
    kw.setdefault("root", str(tmp_path / "state"))
    kw.setdefault("rows", 4)
    kw.setdefault("cols", 4)
    kw.setdefault("workers", 2)
    kw.setdefault("watchdog_max_steps", None)
    return ServeConfig(**kw)


def run(coro):
    return asyncio.run(coro)


def write(sid, value=1):
    return {"op": "write", "session": sid, "cells": [[0, 0, value]]}


def read(sid):
    return {"op": "read", "session": sid, "row": 0, "col": 0}


# ----------------------------------------------------------------------
# teardown
# ----------------------------------------------------------------------


def _left_for_collector(open_and_use):
    """Objects ``gc.collect()`` finds once the session ``open_and_use()``
    returns is closed and dropped (the garbage made before the close is
    collected first)."""
    session = open_and_use()
    gc.collect()
    gc.disable()
    try:
        session.close(reason="eviction")
        del session
        return gc.collect()
    finally:
        gc.enable()


class TestClosedSessionsDieByRefcount:
    """A tenant's graph is cyclic by construction; closing tears it down,
    so a set-up tenant leaves the collector no more than an empty one."""

    def _config(self, tmp_path):
        return make_config(tmp_path, rows=4, cols=8)

    def _open(self, config, sid):
        # The server's registry outlives every session it opens.
        return Session.open(sid, config, self.registry)

    def setup_method(self):
        self.registry = MetricsRegistry()

    def _empty(self, config):
        return _left_for_collector(lambda: self._open(config, "empty"))

    def _set_up(self, config):
        session = self._open(config, "t1")
        session.apply({"op": "batch", "cells": _layered(4, 8)})
        for row in range(4):
            for col in range(8):
                session.apply({"op": "read", "row": row, "col": col})
        return session

    def test_a_set_up_tenant_leaves_no_more_than_an_empty_one(self, tmp_path):
        config = self._config(tmp_path)
        empty = self._empty(config)
        assert _left_for_collector(lambda: self._set_up(config)) <= empty

    def test_a_resurrected_generation_leaves_no_more_than_an_empty_one(
        self, tmp_path
    ):
        config = self._config(tmp_path)
        self._set_up(config).close(reason="eviction")
        empty = self._empty(config)

        def resurrect():
            session = self._open(config, "t1")
            assert session.resurrected
            session.apply({"op": "write", "cells": [[0, 1, "5"]]})
            assert session.apply({"op": "read", "row": 3, "col": 0})["value"]
            return session

        assert _left_for_collector(resurrect) <= empty

    def test_closed_session_keeps_its_flight_ring_and_counters(self, tmp_path):
        session = self._set_up(self._config(tmp_path))
        recorded = session.flight.recorded
        executions = session.runtime.stats.executions
        session.close(reason="eviction")
        assert session.closed and session.runtime.closed
        assert session.runtime.graph.nodes == []
        # The ring still reads, closing checkpoint included.
        assert session.flight.recorded == recorded + 1
        assert session.flight.records()[-1]["kind"] == "checkpoint"
        assert session.runtime.stats.executions == executions
        # The state is on disk: the next generation reads it back.
        revived = self._open(self._config(tmp_path), "t1")
        assert revived.apply({"op": "read", "row": 1, "col": 0})["value"] == 3
        revived.close()


class TestFailedCheckpointStillReleases:
    def test_close_releases_everything_and_raises(self, tmp_path):
        config = make_config(tmp_path)
        session = Session.open("a", config)
        session.apply(write("a"))
        wal = session.runtime._persist.wal

        def no_space(path):
            raise OSError(28, "No space left on device")

        session.sheet.save = no_space
        try:
            session.close(reason="eviction")
        except OSError as exc:
            assert exc.errno == 28
        else:
            raise AssertionError("the failed checkpoint must propagate")
        assert session.closed and session.runtime.closed
        assert wal._fh.closed
        assert session.runtime._persist is None
        assert session.runtime.graph.nodes == []
        # Nothing was lost: the WAL holds the write.
        revived = Session.open("a", config)
        assert revived.apply(read("a"))["value"] == 1
        revived.close()


# ----------------------------------------------------------------------
# eviction behind the reply
# ----------------------------------------------------------------------


class TestEvictionBehindTheReply:
    def test_cold_reply_does_not_wait_for_the_victims_close(self, tmp_path):
        release = threading.Event()

        async def main():
            server = Server(make_config(tmp_path, max_live_sessions=1))
            assert (await server.handle(write("a")))["ok"]
            victim = server.sessions.get("a")
            close = victim.close

            def blocked_close(**kw):
                release.wait(timeout=10)
                close(**kw)

            victim.close = blocked_close
            try:
                reply = await asyncio.wait_for(
                    server.handle(write("b", 2)), timeout=5
                )
            finally:
                release.set()
            assert reply["ok"], reply
            # Counted when it left the live table, closed later.
            assert server.metrics.evictions.value == 1
            assert server.sessions.get("a") is None
            await server.sessions.wait_closed()
            assert victim.closed
            assert (await server.handle(read("a")))["result"]["value"] == 1
            await server.shutdown()

        run(main())

    def test_live_set_stays_within_one_over_the_limit_plus_busy(
        self, tmp_path
    ):
        limit = 2
        worst = []

        async def main():
            server = Server(make_config(tmp_path, max_live_sessions=limit))
            inflight = server.sessions.inflight
            done = asyncio.Event()

            async def watch():
                while not done.is_set():
                    busy = sum(1 for depth in inflight.values() if depth)
                    worst.append(server.sessions.live - busy)
                    await asyncio.sleep(0)

            watcher = asyncio.get_running_loop().create_task(watch())
            sids = [f"t{i}" for i in range(7)]
            for wave in range(6):
                replies = await asyncio.gather(*(
                    server.handle(write(sid, wave) if (i + wave) % 2 else read(sid))
                    for i, sid in enumerate(sids[wave % 3:wave % 3 + 4])
                ))
                assert all(r["ok"] for r in replies), replies
            done.set()
            await watcher
            await server.sessions.wait_closed()
            assert server.sessions.live <= limit
            await server.shutdown()

        run(main())
        assert worst and max(worst) <= limit + 1

    def test_failed_eviction_is_reported_against_the_victim(self, tmp_path):
        async def main():
            server = Server(make_config(tmp_path, max_live_sessions=1))
            assert (await server.handle(write("a")))["ok"]
            victim = server.sessions.get("a")

            def no_space(path):
                raise OSError(28, "No space left on device")

            victim.sheet.save = no_space
            reply = await server.handle(write("b", 2))
            # The cold tenant is served; the failure is the victim's.
            assert reply["ok"], reply
            await server.sessions.wait_closed()
            assert server.metrics.errors.value == 1
            notes = [
                r for r in server.telemetry.flight.records()
                if r["kind"] == "eviction-failed"
            ]
            assert [n["label"] for n in notes] == ["a"]
            assert "No space left on device" in notes[0]["data"]["error"]
            # The victim released its runtime and WAL handle anyway,
            # and its write survives in the WAL.
            assert victim.runtime.closed and victim.runtime._persist is None
            assert (await server.handle(read("a")))["result"]["value"] == 1
            await server.shutdown()

        run(main())

    def test_promotion_ends_within_the_limit(self, tmp_path):
        text = sheet_checkpoint(tmp_path, "source")

        async def main():
            server = Server(make_config(
                tmp_path, root=str(tmp_path / "standby"), standby=True,
                max_live_sessions=2,
            ))
            for i in range(5):
                await server.handle(resync(f"s{i}", text))
            promoted = await server.handle({"op": "promote"})
            assert promoted["ok"] and promoted["result"]["sessions"] == 5
            assert not promoted["result"]["errors"]
            assert server.sessions.live <= 2
            assert server.metrics.evictions.value == 3
            for i in range(5):
                response = await server.handle(
                    {"op": "read", "session": f"s{i}", "row": 1, "col": 0}
                )
                assert response["result"]["value"] == 7
            await server.shutdown()

        run(main())


# ----------------------------------------------------------------------
# a failed close at shutdown
# ----------------------------------------------------------------------


def _close_failures(server):
    return [
        r for r in server.telemetry.flight.records()
        if r["kind"] == "close-failed"
    ]


class TestShutdownAfterFailedClose:
    """Shutdown waits for every session's close; one that raises is
    reported against its session, and the shutdown still finishes."""

    def test_a_failed_checkpoint_is_reported_and_shutdown_finishes(
        self, tmp_path
    ):
        threads = set(threading.enumerate())
        callbacks = list(gc.callbacks)
        config = make_config(tmp_path)

        async def main():
            server = Server(config)
            assert (await server.handle(write("good")))["ok"]
            assert (await server.handle(write("bad", 2)))["ok"]
            bad = server.sessions.get("bad")

            def no_space(path):
                raise OSError(28, "No space left on device")

            bad.sheet.save = no_space
            report = await server.shutdown()
            assert report["sessions_closed"] == 2 and server.closed
            assert server.metrics.errors.value == 1
            notes = _close_failures(server)
            assert [n["label"] for n in notes] == ["bad"]
            assert "No space left on device" in notes[0]["data"]["error"]
            assert bad.runtime.closed and bad.runtime._persist is None

        run(main())
        assert set(threading.enumerate()) == threads
        assert gc.callbacks == callbacks
        assert os.path.exists(os.path.join(config.root, "flight-server.jsonl"))
        # The healthy tenant's close was not cut short by the failure.
        assert os.path.exists(os.path.join(config.root, "good", "sheet"))

    def test_a_tripped_watchdog_is_reported_and_shutdown_finishes(
        self, tmp_path
    ):
        threads = set(threading.enumerate())

        async def main():
            server = Server(make_config(tmp_path, watchdog_max_steps=3))
            chain = [[0, 0, 1]] + [
                [0, c, f"R0C{c - 1} + 1"] for c in range(1, 4)
            ]
            await server.handle({"op": "write", "session": "a", "cells": chain})
            assert (await server.handle(
                {"op": "read", "session": "a", "row": 0, "col": 3}
            ))["result"]["value"] == 4
            await server.handle(write("a", 5))
            tripped = await server.handle(
                {"op": "read", "session": "a", "row": 0, "col": 3}
            )
            assert tripped["ok"] is False
            await server.shutdown()
            assert server.closed
            notes = _close_failures(server)
            assert [n["label"] for n in notes] == ["a"]
            assert "PropagationBudgetError" in notes[0]["data"]["error"]

        run(main())
        assert set(threading.enumerate()) == threads


# ----------------------------------------------------------------------
# what a client learns of an unopenable session
# ----------------------------------------------------------------------


def test_unopenable_session_message_names_no_server_path(tmp_path):
    text = sheet_checkpoint(tmp_path, "source")
    header, body = text.split("\n", 1)
    damaged = header + "\n" + body.replace("R0C0 + 2", "R0C0 + 3")
    config = make_config(tmp_path, root=str(tmp_path / "standby"), standby=True)

    async def main():
        server = Server(config)
        await server.handle(resync("bad", damaged))
        await server.handle({"op": "promote"})
        response = await server.handle(read("bad"))
        message = response["error"]["message"]
        assert response["error"]["code"] == 422
        assert message.startswith("opening session 'bad' failed: ")
        assert "CRC" in message
        assert config.root not in message
        notes = [
            r for r in server.telemetry.flight.records()
            if r["kind"] == "session-open-failed"
        ]
        assert notes and config.root in notes[-1]["data"]["error"]
        await server.shutdown()

    run(main())


# ----------------------------------------------------------------------
# collector pauses in /metrics
# ----------------------------------------------------------------------


class TestGcPauses:
    def test_forced_collection_lands_in_the_gen2_series(self, tmp_path):
        async def main():
            server = Server(make_config(tmp_path))
            gen2 = server.registry.get("serve_gc_pause_seconds::gen2")
            before = gen2.total
            gc.collect()
            assert gen2.total == before + 1
            assert gen2.sum > 0
            text = server.registry.to_prometheus()
            for generation in range(3):
                assert f"serve_gc_pause_seconds::gen{generation}_count" in text
            await server.shutdown()

        run(main())

    def test_shut_down_server_leaves_no_callback(self, tmp_path):
        before = list(gc.callbacks)

        async def main():
            server = Server(make_config(tmp_path))
            assert len(gc.callbacks) == len(before) + 1
            await server.shutdown()

        run(main())
        assert gc.callbacks == before
