"""Crash recovery: checkpoint + WAL tail -> live runtime
(repro.persist.recover)."""

import json
import zlib

import pytest

from repro import Cell, EAGER, EventBus, EventKind, NodeExecutionError, Runtime, cached
from repro.persist.ids import fresh_id_space
from repro.persist.recover import RecoveryReport, RestoredFault, recover
from repro.persist.wal import WriteAheadLog


def _program(values):
    """Deterministic reconstruction target: N cells, two procedures."""
    cells = [Cell(v, label="cell") for v in values]

    @cached
    def total():
        return sum(c.get() for c in cells)

    @cached
    def double(i):
        return cells[i].get() * 2

    return cells, total, double


def _rewrite_checkpoint(path, **changes):
    """Rewrite the checkpoint at ``path`` with ``changes`` applied to its
    payload (a ``None`` value deletes the key), under a valid header."""
    header, body = path.read_bytes().split(b"\n", 1)
    payload = json.loads(body)
    for key, value in changes.items():
        if value is None:
            payload.pop(key, None)
        else:
            payload[key] = value
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    magic, version = header.decode("ascii").split()[:2]
    crc = zlib.crc32(body) & 0xFFFFFFFF
    path.write_bytes(f"{magic} {version} {crc:08x} {len(body)}\n".encode() + body)


class TestCleanRecovery:
    def test_warm_start_adopts_without_reexecution(self, tmp_path):
        path = str(tmp_path / "state")
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            cells, total, double = _program([1, 2, 3])
            assert total() == 6
            assert double(1) == 4
            rt.checkpoint(path)
        rt._discarded = True

        fresh_id_space()
        rt2 = Runtime.recover(path)
        report = rt2.last_recovery
        assert report.mode == "clean"
        assert report.replayed == 0
        assert report.restored_nodes == 5  # 3 storage + 2 procedure nodes
        assert report.restored_edges == 4
        with rt2.active():
            cells, total, double = _program([1, 2, 3])
            assert total() == 6
            assert double(1) == 4
        assert rt2.stats.executions == 0
        assert rt2.check_invariants(raise_on_violation=False) == []

    def test_write_of_unchanged_value_adopts_silently(self, tmp_path):
        path = str(tmp_path / "state")
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            cells, total, _double = _program([1, 2, 3])
            assert total() == 6
            rt.checkpoint(path)
        fresh_id_space()
        rt2 = Runtime.recover(path)
        with rt2.active():
            cells, total, _double = _program([1, 2, 3])
            # The write matches the checkpoint fingerprint: the bind
            # adopts it as "no change" and dependents stay warm.
            cells[1].set(2)
            assert total() == 6
        assert rt2.stats.executions == 0

    def test_divergent_write_is_caught_by_change_detection(self, tmp_path):
        path = str(tmp_path / "state")
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            cells, total, _double = _program([1, 2, 3])
            assert total() == 6
            rt.checkpoint(path)
        fresh_id_space()
        rt2 = Runtime.recover(path)
        with rt2.active():
            cells, total, _double = _program([1, 2, 3])
            cells[1].set(20)
            assert total() == 24
        assert rt2.stats.executions >= 1
        assert rt2.check_invariants(raise_on_violation=False) == []


class TestReplayedRecovery:
    def test_wal_tail_is_replayed_and_marked(self, tmp_path):
        path = str(tmp_path / "state")
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            cells, total, _double = _program([1, 2, 3])
            assert total() == 6
            manager = rt.persist_to(path)
            manager.checkpoint()
            cells[0].set(10)  # WAL tail: committed after the checkpoint
            rt.flush()
            assert total() == 15
        rt._discarded = True

        fresh_id_space()
        rt2, report = recover(path, restore_values=True)
        assert report.mode == "replayed"
        assert report.replayed == 1
        with rt2.active():
            cells, total, _double = _program([1, 2, 3])
            assert total() == 15
            assert cells[0].peek() == 10  # restore_values pushed the write
        assert rt2.check_invariants(raise_on_violation=False) == []

    def test_batched_tail_replays_atomically(self, tmp_path):
        path = str(tmp_path / "state")
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            cells, total, _double = _program([1, 2, 3])
            assert total() == 6
            manager = rt.persist_to(path)
            manager.checkpoint()
            with rt.batch():
                cells[0].set(10)
                cells[2].set(30)
        rt._discarded = True

        fresh_id_space()
        rt2, report = recover(path, restore_values=True)
        assert report.mode == "replayed"
        assert report.replayed == 2
        with rt2.active():
            cells, total, _double = _program([1, 2, 3])
            assert total() == 42

    def test_writes_to_locations_born_after_the_checkpoint_are_skipped(
        self, tmp_path
    ):
        path = str(tmp_path / "state")
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            cells, total, _double = _program([1, 2, 3])
            assert total() == 6
            manager = rt.persist_to(path)
            manager.checkpoint()
            newcomer = Cell(0, label="late")
            newcomer.set(7)  # logged, but has no restored node
        rt._discarded = True

        fresh_id_space()
        rt2, report = recover(path, restore_values=True)
        assert report.mode == "clean"  # nothing replayable matched
        with rt2.active():
            cells, total, _double = _program([1, 2, 3])
            assert total() == 6


class TestDegradedRecovery:
    def test_corrupt_checkpoint_degrades_to_empty_runtime(self, tmp_path):
        path = tmp_path / "state"
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            cells, total, _double = _program([1, 2, 3])
            assert total() == 6
            rt.checkpoint(str(path))
        data = path.read_bytes()
        path.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))

        fresh_id_space()
        rt2, report = recover(str(path))
        assert report.mode == "degraded"
        assert "checkpoint" in report.reason
        assert report.restored_nodes == 0
        # Degraded is slower, never wrong: the program rebuilds fully.
        with rt2.active():
            cells, total, _double = _program([1, 2, 3])
            assert total() == 6
        assert rt2.stats.executions >= 1
        assert rt2.check_invariants(raise_on_violation=False) == []

    def test_mid_wal_damage_degrades_but_salvages_app_records(self, tmp_path):
        path = str(tmp_path / "state")
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            cells, total, _double = _program([1, 2, 3])
            assert total() == 6
            manager = rt.persist_to(path)
            manager.checkpoint()
            manager.log_app({"op": "before-damage"})
            cells[0].set(10)
            manager.log_app({"op": "after-damage"})
        manager.wal.close()
        lines = open(path + ".wal", "rb").read().splitlines(keepends=True)
        with open(path + ".wal", "wb") as fh:
            fh.write(lines[0])
            fh.write(b"damaged record\n")
            fh.writelines(lines[2:])

        fresh_id_space()
        rt2, report = recover(path)
        # Writes past the damage are unknowable: the graph is discarded,
        # but the readable app-record prefix is surfaced for app replay.
        assert report.mode == "degraded"
        assert report.app_records == [{"op": "before-damage"}]
        assert rt2.last_recovery is report

    @pytest.mark.parametrize("codec", ["pickle", "msgpack", None])
    def test_other_codec_degrades_but_keeps_app_state(self, tmp_path, codec):
        """Only JSON payloads are decoded: a checkpoint naming any other
        codec, or none, is restored from nothing but its app_state."""
        path = tmp_path / "state"
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            cells, total, _double = _program([1, 2, 3])
            assert total() == 6
            rt.checkpoint(str(path), app_state={"rows": 2})
        _rewrite_checkpoint(path, codec=codec)

        fresh_id_space()
        rt2, report = recover(str(path))
        assert report.mode == "degraded"
        assert f"unsupported codec {codec!r}" in report.reason
        assert report.app_state == {"rows": 2}
        assert report.restored_nodes == 0
        with rt2.active():
            cells, total, _double = _program([1, 2, 3])
            assert total() == 6
        assert rt2.stats.executions == 1

    def test_torn_wal_tail_is_not_degraded(self, tmp_path):
        path = str(tmp_path / "state")
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            cells, total, _double = _program([1, 2, 3])
            assert total() == 6
            manager = rt.persist_to(path)
            manager.checkpoint()
            cells[0].set(10)
        manager.wal.close()
        with open(path + ".wal", "ab") as fh:
            fh.write(b'cafebabe {"t": "w", "sid": "ce')  # crash mid-append

        fresh_id_space()
        rt2, report = recover(path, restore_values=True)
        # The torn write was never acknowledged; everything before it is
        # recovered normally.
        assert report.mode == "replayed"
        assert report.dropped_tail
        assert report.replayed == 1
        with rt2.active():
            cells, total, _double = _program([1, 2, 3])
            assert total() == 15


class TestPoisonRestore:
    def test_restored_poison_surfaces_and_heals(self, tmp_path):
        path = str(tmp_path / "state")
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            src = Cell(1, label="src")

            @cached
            def divide():
                return 10 // src.get()

            assert divide() == 10
            src.set(0)
            rt.flush()
            with pytest.raises(NodeExecutionError):
                divide()
            rt.checkpoint(path)
        rt._discarded = True

        fresh_id_space()
        rt2 = Runtime.recover(path)
        with rt2.active():
            src = Cell(0, label="src")

            @cached
            def divide():
                return 10 // src.get()

            # The restored poison carries a stand-in for the original
            # exception (live exception objects are never persisted)...
            with pytest.raises(NodeExecutionError) as excinfo:
                divide()
            assert isinstance(excinfo.value.root, RestoredFault)
            # ...and heals through an ordinary write, like live poison.
            src.set(5)
            assert divide() == 2
        assert rt2.check_invariants(raise_on_violation=False) == []


class TestAdoptionEdgeCases:
    def test_strategy_change_refuses_adoption_and_rebuilds(self, tmp_path):
        path = str(tmp_path / "state")
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            src = Cell(2, label="src")

            @cached
            def scale():
                return src.get() * 7

            assert scale() == 14
            rt.checkpoint(path)

        fresh_id_space()
        rt2 = Runtime.recover(path)
        with rt2.active():
            src = Cell(2, label="src")

            @cached(strategy=EAGER)
            def scale():
                return src.get() * 7

            # DEMAND node checkpointed, EAGER procedure rebuilt: the
            # orphaned node stays inert and a fresh one is evaluated.
            assert scale() == 14
        assert rt2.stats.executions >= 1
        assert rt2.check_invariants(raise_on_violation=False) == []

    def test_app_state_rides_along(self, tmp_path):
        path = str(tmp_path / "state")
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            _program([1])[1]()
            rt.checkpoint(path, app_state={"rows": 2})
        _rt2, report = recover(path)
        assert report.app_state == {"rows": 2}


class TestRecoveryReport:
    def test_report_serializes(self, tmp_path):
        path = str(tmp_path / "state")
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            cells, total, _double = _program([1, 2, 3])
            assert total() == 6
            rt.checkpoint(path)
        _rt2, report = recover(path)
        assert isinstance(report, RecoveryReport)
        payload = report.to_dict()
        assert payload["mode"] == "clean"
        assert payload["restored_nodes"] == 4
        out = tmp_path / "report.json"
        report.write(str(out))
        assert json.loads(out.read_text())["mode"] == "clean"

    @pytest.mark.parametrize("damaged", [False, True])
    def test_recovery_event_only_when_observed(self, tmp_path, monkeypatch, damaged):
        path = str(tmp_path / "state")
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            _program([1])[1]()
            rt.checkpoint(path, app_state={"edits": [[0, 0, 1]]})
        if damaged:
            with open(path, "ab") as fh:
                fh.write(b"trailing garbage")
        mode = "degraded" if damaged else "clean"

        # Unobserved: the payload, a deep copy of app_state, is not built.
        def no_payload(report):
            raise AssertionError("RECOVERY payload built for nobody")

        with monkeypatch.context() as patch:
            patch.setattr(RecoveryReport, "to_dict", no_payload)
            rt2, report = recover(path)
        assert report.mode == mode and rt2.last_recovery is report

        bus = EventBus()
        seen = []
        bus.subscribe(EventKind.RECOVERY, lambda k, n, a, data: seen.append(data))
        _rt3, report = recover(path, events=bus)
        assert seen == [report.to_dict()] and seen[0]["mode"] == mode

    def test_missing_checkpoint_never_raises(self, tmp_path):
        rt, report = recover(str(tmp_path / "never-written"))
        assert report.mode == "degraded"
        with rt.active():
            assert Cell(1, label="x").get() == 1
