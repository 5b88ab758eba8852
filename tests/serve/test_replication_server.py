"""Replication surface of the server: roles, ship op, promote op.

The TCP test runs a primary and a standby server on one asyncio loop:
the primary's semi-sync link blocks a *worker* thread on the standby's
socket while the loop serves it — the same topology the failover drill
runs across two real processes.
"""

import asyncio
import base64
import json
import pickle
import zlib

from repro import Runtime
from repro.replicate.stream import make_record
from repro.serve import ServeConfig, Server
from repro.serve.loadgen import _replay_serially
from repro.spreadsheet import Spreadsheet

from ..replicate.test_shipper_standby import _wal_line


def make_config(tmp_path, name, **kw):
    kw.setdefault("root", str(tmp_path / name))
    kw.setdefault("rows", 4)
    kw.setdefault("cols", 4)
    kw.setdefault("workers", 2)
    kw.setdefault("watchdog_max_steps", None)
    return ServeConfig(**kw)


def run(coro):
    return asyncio.run(coro)


EDITS = [[0, 0, "5"], [1, 0, "R0C0 + 2"]]


def sheet_checkpoint(tmp_path, name, edits=EDITS):
    """The text of a 4x4 sheet's checkpoint after ``edits`` — what a
    primary ships in a resync frame."""
    path = tmp_path / name
    rt = Runtime()
    with rt.active():
        sheet = Spreadsheet(4, 4)
        for row, col, formula in edits:
            sheet.set_formula(row, col, formula)
            sheet.value(row, col)
        sheet.save(str(path))
    rt.close()
    return path.read_text(encoding="utf-8")


def reframe(text, **changes):
    """``text``'s checkpoint payload with ``changes`` applied, under a
    header whose CRC matches."""
    payload = json.loads(text.split("\n", 1)[1])
    payload.update(changes)
    body = json.dumps(payload, sort_keys=True)
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"ALPHONSE-CKPT v1 {crc:08x} {len(body.encode('utf-8'))}\n{body}"


def resync(sid, ckpt):
    return {
        "op": "ship",
        "frame": {"kind": "resync", "sid": sid, "lsn": 1, "ckpt": ckpt, "wal": ""},
    }


class _CreatesFile:
    """Unpickling this creates the file at ``path``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


class TestStandbyRole:
    def test_session_ops_refused_until_promoted(self, tmp_path):
        async def main():
            server = Server(make_config(tmp_path, "standby", standby=True))
            refused = await server.handle(
                {"op": "write", "session": "a", "cells": [[0, 0, "1"]]}
            )
            assert refused["ok"] is False
            assert refused["error"]["code"] == 503
            assert "promoted" in refused["error"]["message"]
            assert server.health()["role"] == "standby"
            promoted = await server.handle({"op": "promote"})
            assert promoted["ok"] is True
            assert promoted["result"]["promoted"] is True
            assert server.health()["role"] == "promoted"
            accepted = await server.handle(
                {"op": "write", "session": "a", "cells": [[0, 0, "1"]]}
            )
            assert accepted["ok"] is True
            await server.shutdown()

        run(main())

    def test_ship_applies_and_nacks_gaps(self, tmp_path):
        async def main():
            server = Server(make_config(tmp_path, "standby", standby=True))
            frame = {
                "kind": "records",
                "sid": "a",
                "records": [make_record(1, "wal", _wal_line(1))],
            }
            applied = await server.handle({"op": "ship", "frame": frame})
            assert applied["result"] == {"sid": "a", "applied": True, "lsn": 1}
            gap = {
                "kind": "records",
                "sid": "a",
                "records": [make_record(9, "wal", _wal_line(9))],
            }
            refused = await server.handle({"op": "ship", "frame": gap})
            assert refused["result"]["applied"] is False
            assert refused["result"]["expect"] == 2
            status = await server.handle({"op": "replication"})
            assert status["result"]["role"] == "standby"
            assert status["result"]["gaps"] == 1
            await server.shutdown()

        run(main())

    def test_ship_rejected_on_non_standby(self, tmp_path):
        async def main():
            server = Server(make_config(tmp_path, "solo"))
            rejected = await server.handle({"op": "ship", "frame": {"sid": "a"}})
            assert rejected["error"]["code"] == 400
            promoted = await server.handle({"op": "promote"})
            assert promoted["error"]["code"] == 400
            status = await server.handle({"op": "replication"})
            assert status["result"]["role"] == "none"
            await server.shutdown()

        run(main())


class TestPromotingShippedState:
    def test_shipped_pickle_checkpoint_is_never_unpickled(self, tmp_path):
        """A resync frame's checkpoint decodes as JSON or not at all: one
        naming codec "pickle" degrades the session to a rebuild from its
        formulas instead of running what the sender put in its values."""
        marker = tmp_path / "unpickled"
        text = sheet_checkpoint(tmp_path, "source")
        nodes = json.loads(text.split("\n", 1)[1])["nodes"]
        planted = base64.b64encode(pickle.dumps(_CreatesFile(str(marker))))
        for node in nodes:
            if node["has_value"]:
                node["value"] = planted.decode("ascii")
        shipped_ckpt = reframe(text, codec="pickle", nodes=nodes)

        async def main():
            server = Server(make_config(tmp_path, "standby", standby=True))
            shipped = await server.handle(resync("a", shipped_ckpt))
            assert shipped["result"]["applied"] is True
            promoted = await server.handle({"op": "promote"})
            assert not marker.exists()
            assert promoted["ok"] is True, promoted
            assert promoted["result"]["modes"] == {"a": "degraded"}
            assert promoted["result"]["errors"] == {}
            read = await server.handle(
                {"op": "read", "session": "a", "row": 1, "col": 0}
            )
            assert read["result"]["value"] == 7
            await server.shutdown()

        run(main())

    def test_unreadable_session_does_not_block_promotion(self, tmp_path):
        """A session whose checkpoint fails its CRC is reported in
        ``errors``; every other session is promoted and serves."""
        text = sheet_checkpoint(tmp_path, "source")
        header, body = text.split("\n", 1)
        damaged = header + "\n" + body.replace("R0C0 + 2", "R0C0 + 3")

        async def main():
            server = Server(make_config(tmp_path, "standby", standby=True))
            for sid, ckpt in (("bad", damaged), ("good", text)):
                shipped = await server.handle(resync(sid, ckpt))
                assert shipped["result"]["applied"] is True
            promoted = await server.handle({"op": "promote"})
            assert promoted["ok"] is True, promoted
            report = promoted["result"]
            assert report["promoted"] is True
            assert report["ok"] is False
            assert list(report["errors"]) == ["bad"]
            assert "CRC" in report["errors"]["bad"]
            assert report["modes"] == {"good": "clean"}
            assert server.health()["role"] == "promoted"
            read = await server.handle(
                {"op": "read", "session": "good", "row": 1, "col": 0}
            )
            assert read["result"]["value"] == 7
            await server.shutdown()

        run(main())

    def test_unopenable_session_answers_422_naming_it(self, tmp_path):
        """After a promotion that listed ``bad`` in its errors, every
        request to ``bad`` (each one opening it afresh) answers 422
        naming the session; ``good`` still serves."""
        text = sheet_checkpoint(tmp_path, "source")
        header, body = text.split("\n", 1)
        damaged = header + "\n" + body.replace("R0C0 + 2", "R0C0 + 3")

        async def main():
            server = Server(make_config(tmp_path, "standby", standby=True))
            for sid, ckpt in (("bad", damaged), ("good", text)):
                await server.handle(resync(sid, ckpt))
            promoted = await server.handle({"op": "promote"})
            assert list(promoted["result"]["errors"]) == ["bad"]
            for request in (
                {"op": "read", "session": "bad", "row": 1, "col": 0},
                {"op": "read", "session": "bad", "row": 1, "col": 0},
                {"op": "write", "session": "bad", "cells": [[0, 0, "1"]]},
            ):
                response = await server.handle(request)
                assert response["ok"] is False
                assert response["error"]["code"] == 422, response
                assert "'bad'" in response["error"]["message"]
            read = await server.handle(
                {"op": "read", "session": "good", "row": 1, "col": 0}
            )
            assert read["result"]["value"] == 7
            await server.shutdown()

        run(main())


class TestTcpReplication:
    def test_primary_ships_over_tcp_and_standby_promotes(self, tmp_path):
        standby_cfg = make_config(tmp_path, "standby", standby=True,
                                  standby_warm_every=4)
        edits = [[0, 0, "5"], [1, 0, "R0C0 + 2"], [0, 1, "R1C0 + 1"]]

        async def main():
            standby = await Server(standby_cfg).start()
            primary_cfg = make_config(
                tmp_path,
                "primary",
                replicas=(f"127.0.0.1:{standby.port}",),
                wal_segment_records=4,
            )
            primary = await Server(primary_cfg).start()
            for row, col, formula in edits:
                done = await primary.handle(
                    {"op": "write", "session": "a",
                     "cells": [[row, col, formula]]}
                )
                assert done["ok"] is True, done
            health = primary.health()
            assert health["role"] == "primary"
            assert health["replication_lag_records"] == 0
            status = primary.replication_status()
            assert status["links"][0]["up"] is True
            # SIGKILL stand-in: drop the primary without a drain.
            primary.pool.close()
            # Promote the standby and serve the tenant from it.
            promoted = await standby.handle({"op": "promote"})
            assert promoted["ok"] is True, promoted
            report = promoted["result"]
            assert report["ok"] is True
            log = await standby.handle({"op": "log", "session": "a"})
            assert log["result"]["edits"] == edits
            dump = await standby.handle({"op": "dump", "session": "a"})
            assert dump["result"]["values"] == _replay_serially(edits, 4, 4)
            audit = await standby.handle({"op": "audit", "session": "a"})
            assert audit["result"]["sound"] is True
            await standby.shutdown()

        run(main())

    def test_http_replication_route(self, tmp_path):
        async def main():
            standby = Server(make_config(tmp_path, "standby", standby=True))
            body = standby._http_get("/replication")
            assert b"200 OK" in body.split(b"\r\n", 1)[0]
            payload = json.loads(body.split(b"\r\n\r\n", 1)[1])
            assert payload["role"] == "standby"
            await standby.shutdown()

        run(main())
