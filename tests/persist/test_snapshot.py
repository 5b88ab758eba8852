"""Checkpoint snapshots: format, atomicity, drop policy, corruption
detection (repro.persist.snapshot)."""

import json
import os

import pytest

from repro import Cell, Runtime, cached
from repro.persist.ids import fresh_id_space
from repro.persist.snapshot import (
    CheckpointCorrupt,
    read_checkpoint,
    write_checkpoint,
)


def _simple_graph(rt):
    """Two cells feeding one cached procedure, fully evaluated."""
    with rt.active():
        a = Cell(1, label="a")
        b = Cell(2, label="b")

        @cached
        def total():
            return a.get() + b.get()

        assert total() == 3
    return a, b, total


class TestWriteCheckpoint:
    def test_payload_roundtrips(self, tmp_path):
        fresh_id_space()
        rt = Runtime()
        _simple_graph(rt)
        path = str(tmp_path / "ckpt")
        count = write_checkpoint(rt, path)
        payload = read_checkpoint(path)
        assert payload["version"] == 1
        assert payload["codec"] == "json"
        assert count == len(payload["nodes"]) == 3
        assert {n["sid"] for n in payload["nodes"]} == {"a#0", "b#0", "total()"}
        assert len(payload["edges"]) == 2

    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        fresh_id_space()
        rt = Runtime()
        _simple_graph(rt)
        path = str(tmp_path / "ckpt")
        write_checkpoint(rt, path)
        assert os.path.exists(path)
        assert not os.path.exists(path + ".tmp")

    def test_app_state_is_stored_verbatim(self, tmp_path):
        fresh_id_space()
        rt = Runtime()
        _simple_graph(rt)
        path = str(tmp_path / "ckpt")
        write_checkpoint(rt, path, app_state={"rows": 3, "cols": [1, 2]})
        assert read_checkpoint(path)["app_state"] == {"rows": 3, "cols": [1, 2]}

    def test_json_checkpoint_is_byte_identical_to_json_dumps(self, tmp_path):
        fresh_id_space()
        rt = Runtime()
        values = [{"z": 1, "a": ["caf\u00e9", 2.5]}, "x", None, 3]
        with rt.active():
            cells = [Cell(v, label=f"c{i}") for i, v in enumerate(values)]

            @cached
            def everything():
                return [c.get() for c in cells]

            everything()
        path = str(tmp_path / "ckpt")
        write_checkpoint(rt, path, app_state={"b": 1, "a": 2})
        payload = read_checkpoint(path)
        stored = {n["sid"]: n["value"] for n in payload["nodes"]}
        for i, value in enumerate(values):
            assert stored[f"c{i}#0"] == json.dumps(value, sort_keys=True)
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        with open(path, "rb") as fh:
            fh.readline()  # header: magic, version, CRC, length
            assert fh.read() == body.encode("utf-8")


class TestDropPolicy:
    def test_unidentifiable_instances_drop_with_their_dependents(self, tmp_path):
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            a = Cell(1, label="a")

            class Box:
                n = 5

            box = Box()

            @cached
            def probe(target):
                return target.n

            @cached
            def top():
                return probe(box) + a.get()

            assert top() == 6
        write_checkpoint(rt, str(tmp_path / "ckpt"))
        payload = read_checkpoint(str(tmp_path / "ckpt"))
        # probe(box) has no stable identity; top() depends on it, so the
        # closure drops both rather than let top() silently lose an input.
        assert {n["sid"] for n in payload["nodes"]} == {"a#0"}

    def test_duplicate_sid_drops_every_holder(self, tmp_path):
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            a = Cell(1, label="one")
            b = Cell(2, label="two")
            a._sid = "clash"
            b._sid = "clash"
            c = Cell(3, label="ok")

            @cached
            def left():
                return a.get() + c.get()

            @cached
            def right():
                return b.get()

            assert left() == 4
            assert right() == 2
        write_checkpoint(rt, str(tmp_path / "ckpt"))
        payload = read_checkpoint(str(tmp_path / "ckpt"))
        # Neither "clash" holder is adoptable (which one would a rebuild
        # recreate?), and their dependent procedures go with them.
        assert {n["sid"] for n in payload["nodes"]} == {"ok#0"}


class TestReadCheckpointCorruption:
    def _valid(self, tmp_path):
        fresh_id_space()
        rt = Runtime()
        _simple_graph(rt)
        path = tmp_path / "ckpt"
        write_checkpoint(rt, str(path))
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointCorrupt):
            read_checkpoint(str(tmp_path / "absent"))

    def test_flipped_payload_byte_fails_crc(self, tmp_path):
        path = self._valid(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
        with pytest.raises(CheckpointCorrupt, match="CRC"):
            read_checkpoint(str(path))

    def test_truncated_payload_fails_length_check(self, tmp_path):
        path = self._valid(tmp_path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CheckpointCorrupt, match="truncated"):
            read_checkpoint(str(path))

    def test_bad_magic(self, tmp_path):
        path = self._valid(tmp_path)
        path.write_bytes(b"NOT-A-CKPT" + path.read_bytes())
        with pytest.raises(CheckpointCorrupt, match="header"):
            read_checkpoint(str(path))

    def test_unsupported_version(self, tmp_path):
        path = self._valid(tmp_path)
        header, body = path.read_bytes().split(b"\n", 1)
        path.write_bytes(header.replace(b" v1 ", b" v9 ") + b"\n" + body)
        with pytest.raises(CheckpointCorrupt, match="version"):
            read_checkpoint(str(path))
