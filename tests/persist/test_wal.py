"""Write-ahead log and the event-driven persistence manager
(repro.persist.wal)."""

import json
import zlib

import pytest

from repro import Cell, EventKind, Runtime, cached
from repro.persist.wal import WriteAheadLog


def _track(*cells):
    """Give each cell a graph node by reading it under a procedure.

    A location nobody ever read has no node, so its writes have no
    change to detect and nothing reaches the WAL — only dependency-graph
    state is durable.
    """

    @cached
    def _reader():
        return [c.get() for c in cells]

    _reader()


class TestWriteAheadLog:
    def test_line_is_byte_identical_to_json_dumps(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path)
        record = {"t": "a", "d": {"source": "caf\u00e9", "row": 1, "col": 0}}
        wal.append(record)
        wal.close()
        body = json.dumps(dict(record, lsn=1), sort_keys=True, separators=(",", ":"))
        crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == f"{crc:08x} {body}\n"

    def test_append_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path)
        wal.append({"t": "w", "sid": "a#0", "v": "1", "fp": None})
        wal.append({"t": "a", "d": {"op": "edit"}})
        wal.close()
        records, dropped_tail, corrupt = WriteAheadLog.read(path)
        assert corrupt is None and not dropped_tail
        assert [r["t"] for r in records] == ["w", "a"]
        assert records[1]["d"] == {"op": "edit"}

    def test_missing_file_is_an_empty_log(self, tmp_path):
        assert WriteAheadLog.read(str(tmp_path / "absent.wal")) == ([], False, None)

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path)
        wal.append({"t": "w", "sid": "a#0", "v": "1", "fp": None})
        wal.close()
        with open(path, "ab") as fh:
            fh.write(b'deadbeef {"t": "w", "si')  # crash mid-append
        records, dropped_tail, corrupt = WriteAheadLog.read(path)
        assert corrupt is None
        assert dropped_tail
        assert len(records) == 1

    def test_mid_file_damage_is_corruption(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path)
        wal.append({"t": "w", "sid": "a#0", "v": "1", "fp": None})
        wal.append({"t": "w", "sid": "b#0", "v": "2", "fp": None})
        wal.close()
        lines = open(path, "rb").read().splitlines(keepends=True)
        with open(path, "wb") as fh:
            fh.write(lines[0])
            fh.write(b"garbage line\n")
            fh.write(lines[1])
        records, dropped_tail, corrupt = WriteAheadLog.read(path)
        assert corrupt is not None and "record 1" in corrupt
        assert len(records) == 1  # the readable prefix is still surfaced

    def test_complete_but_garbled_final_line_is_corruption(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path)
        wal.append({"t": "w", "sid": "a#0", "v": "1", "fp": None})
        wal.close()
        with open(path, "ab") as fh:
            fh.write(b"garbage line\n")  # newline: not a torn append
        _records, _dropped, corrupt = WriteAheadLog.read(path)
        assert corrupt is not None

    def test_crc_guards_each_record(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path)
        wal.append({"t": "w", "sid": "a#0", "v": "1", "fp": None})
        wal.close()
        data = open(path, "rb").read()
        open(path, "wb").write(data.replace(b'"v":"1"', b'"v":"7"'))
        _records, _dropped, corrupt = WriteAheadLog.read(path)
        assert corrupt is not None

    def test_truncate_discards_all_records(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path)
        wal.append({"t": "w", "sid": "a#0", "v": "1", "fp": None})
        wal.truncate()
        wal.append({"t": "w", "sid": "b#0", "v": "2", "fp": None})
        wal.sync()
        wal.close()
        records, _, corrupt = WriteAheadLog.read(path)
        assert corrupt is None
        assert [r["sid"] for r in records] == ["b#0"]


@pytest.fixture
def persisted(tmp_path):
    rt = Runtime()
    manager = rt.persist_to(str(tmp_path / "state"))
    with rt.active():
        yield rt, manager
    manager.close()


def _records(manager):
    records, dropped_tail, corrupt = WriteAheadLog.read(manager.wal.path)
    assert corrupt is None and not dropped_tail
    return records


class TestPersistenceManager:
    def test_committed_writes_append_records(self, persisted):
        rt, manager = persisted
        a = Cell(0, label="a")
        _track(a)
        a.set(1)
        a.set(2)
        records = _records(manager)
        assert [r["t"] for r in records] == ["w", "w"]
        assert records[-1]["sid"] == a._sid

    def test_unchanged_write_logs_nothing(self, persisted):
        rt, manager = persisted
        a = Cell(5, label="a")
        _track(a)
        a.set(5)  # values_equal: no change detected, nothing committed
        assert _records(manager) == []

    def test_batch_commits_as_one_record(self, persisted):
        rt, manager = persisted
        a = Cell(0, label="a")
        b = Cell(0, label="b")
        _track(a, b)
        with rt.batch():
            a.set(1)
            b.set(2)
            a.set(3)  # coalesces with the earlier write to a
        records = _records(manager)
        assert len(records) == 1 and records[0]["t"] == "b"
        writes = {w["sid"] for w in records[0]["w"]}
        assert writes == {a._sid, b._sid}

    def test_rolled_back_batch_logs_nothing(self, persisted):
        rt, manager = persisted
        a = Cell(0, label="a")
        _track(a)
        with pytest.raises(RuntimeError):
            with rt.batch(rollback_on_error=True):
                a.set(9)
                raise RuntimeError("boom")
        assert _records(manager) == []

    def test_app_records_append_in_order(self, persisted):
        rt, manager = persisted
        manager.log_app({"op": "first"})
        manager.log_app({"op": "second"})
        assert [r["d"]["op"] for r in _records(manager)] == ["first", "second"]

    def test_app_record_in_batch_flushes_after_the_batch_record(self, persisted):
        rt, manager = persisted
        a = Cell(0, label="a")
        _track(a)
        with rt.batch():
            a.set(1)
            manager.log_app({"op": "edit"})
        assert [r["t"] for r in _records(manager)] == ["b", "a"]

    def test_app_record_in_rolled_back_batch_is_dropped(self, persisted):
        rt, manager = persisted
        a = Cell(0, label="a")
        _track(a)
        with pytest.raises(RuntimeError):
            with rt.batch(rollback_on_error=True):
                a.set(9)
                manager.log_app({"op": "never-happened"})
                raise RuntimeError("boom")
        assert _records(manager) == []

    def test_checkpoint_truncates_the_wal(self, persisted):
        rt, manager = persisted
        a = Cell(0, label="a")
        _track(a)
        a.set(1)
        assert len(_records(manager)) == 1
        manager.checkpoint()
        assert _records(manager) == []
        a.set(2)  # post-checkpoint tail starts fresh
        assert len(_records(manager)) == 1

    def test_wal_append_and_checkpoint_events(self, persisted):
        rt, manager = persisted
        seen = []
        rt.events.subscribe(
            EventKind.WAL_APPEND,
            lambda kind, node, amount, data: seen.append(data["kind"]),
        )
        checkpoints = []
        rt.events.subscribe(
            EventKind.CHECKPOINT,
            lambda kind, node, amount, data: checkpoints.append(data),
        )
        a = Cell(0, label="a")
        _track(a)
        a.set(1)
        manager.log_app({"op": "x"})
        manager.checkpoint()
        assert seen == ["write", "app"]
        assert len(checkpoints) == 1 and checkpoints[0]["nodes"] >= 1
