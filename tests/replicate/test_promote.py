"""End-to-end replica promotion (repro.replicate.promote).

Drives a real primary server with an in-process replica link, then
promotes the standby root and checks the failover contract: promoted
grids equal a serial replay of each session's edit log, the audit is
clean, and every acknowledged write is present.
"""

import asyncio

from repro.replicate.promote import promote_root, session_ids
from repro.replicate.shipper import InprocLink
from repro.replicate.standby import StandbyApplier
from repro.serve import ServeConfig, Server
from repro.serve.loadgen import _replay_serially


def make_config(tmp_path, **kw):
    kw.setdefault("root", str(tmp_path / "primary"))
    kw.setdefault("rows", 4)
    kw.setdefault("cols", 4)
    kw.setdefault("workers", 2)
    kw.setdefault("watchdog_max_steps", None)
    return ServeConfig(**kw)


class TestPromotion:
    def test_promoted_grids_equal_serial_replay(self, tmp_path):
        standby_root = str(tmp_path / "standby")
        applier = StandbyApplier(standby_root, warm_every=3)
        config = make_config(
            tmp_path,
            replica_links=(InprocLink(applier.apply),),
            wal_segment_records=4,
        )

        async def main():
            server = Server(config)
            for i in range(5):
                await server.handle(
                    {"op": "write", "session": "alice",
                     "cells": [[0, i % 4, str(i + 1)],
                               [1, i % 4, f"R0C{i % 4} + 1"]]}
                )
            await server.handle(
                {"op": "batch", "session": "bob",
                 "cells": [[0, 0, "7"], [1, 0, "R0C0 + 3"]]}
            )
            acked = {
                "alice": (await server.handle(
                    {"op": "log", "session": "alice"}))["result"]["edits"],
                "bob": (await server.handle(
                    {"op": "log", "session": "bob"}))["result"]["edits"],
            }
            # Abandon without shutdown: the standby only has what was
            # acked, like a SIGKILL would leave it.  (Close the threads
            # anyway — this is a test process, not a real crash.)
            await server.shutdown()
            return acked

        acked = asyncio.run(main())
        assert applier.gaps == 0

        report, sessions = promote_root(standby_root, keep_open=True)
        try:
            assert report.ok, report.to_dict()
            assert report.sessions == 2
            assert set(session_ids(standby_root)) == {"alice", "bob"}
            for sid, edits in acked.items():
                session = sessions[sid]
                log = session.apply({"op": "log"})
                # Zero lost acknowledged writes.
                assert log["edits"] == edits
                dump = session.apply({"op": "dump"})
                assert dump["values"] == _replay_serially(
                    edits, dump["rows"], dump["cols"]
                )
                assert session.apply({"op": "audit"})["sound"] is True
        finally:
            for session in sessions.values():
                session.close()

    def test_promote_without_keep_closes_everything(self, tmp_path):
        standby_root = str(tmp_path / "standby")
        applier = StandbyApplier(standby_root, warm_every=0)
        config = make_config(
            tmp_path, replica_links=(InprocLink(applier.apply),)
        )

        async def main():
            server = Server(config)
            await server.handle(
                {"op": "write", "session": "a", "cells": [[0, 0, "1"]]}
            )
            await server.shutdown()

        asyncio.run(main())
        report, sessions = promote_root(standby_root)
        assert report.ok and sessions == {}
        # Promotion cut fresh checkpoints: a second promotion is clean
        # with nothing left to replay.
        again, _ = promote_root(standby_root)
        assert again.ok
        assert again.modes == {"a": "clean"}

    def test_empty_root_promotes_vacuously(self, tmp_path):
        report, sessions = promote_root(str(tmp_path / "void"))
        assert report.ok and report.sessions == 0 and sessions == {}
