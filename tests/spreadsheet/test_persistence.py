"""Spreadsheet durability: save/load across a simulated process death,
WAL-tail formula edits, and degraded rebuilds (docs/persistence.md)."""

import json
import zlib

import pytest

from repro import Runtime
from repro.persist.ids import fresh_id_space
from repro.spreadsheet import Spreadsheet, SpreadsheetLoadError
from repro.spreadsheet.formula import FormulaError


def _build_sheet():
    sheet = Spreadsheet(3, 3)
    sheet.set_formula(0, 0, "5")
    sheet.set_formula(0, 1, "7")
    sheet.set_formula(1, 0, "R0C0 + R0C1")
    sheet.set_formula(1, 1, "SUM(R0C0:R1C0)")
    return sheet


def _fresh_values():
    """The same sheet built from scratch — the recovery oracle."""
    fresh_id_space()
    rt = Runtime()
    with rt.active():
        return _build_sheet().values()


class TestSaveLoad:
    def test_clean_reload_restores_values_without_reexecution(self, tmp_path):
        path = str(tmp_path / "sheet.ckpt")
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            sheet = _build_sheet()
            before = sheet.values()
            sheet.save(path)
        rt._discarded = True

        fresh_id_space()
        loaded, report = Spreadsheet.load(path)
        assert report.mode == "clean"
        with loaded.runtime.active():
            assert loaded.values() == before
        # The whole grid was adopted from the checkpoint: a quiescent
        # reload re-executes nothing.
        assert loaded.runtime.stats.executions == 0
        assert loaded.runtime.check_invariants(raise_on_violation=False) == []

    def test_wal_tail_edits_survive_without_a_second_save(self, tmp_path):
        path = str(tmp_path / "sheet.ckpt")
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            sheet = _build_sheet()
            sheet.values()
            sheet.save(path)
            # Post-save edits reach only the WAL before the "crash".
            sheet.set_formula(0, 0, "11")
            sheet.set_formula(2, 0, "R1C1 + 1")
            expected = sheet.values()
        rt._discarded = True

        fresh_id_space()
        loaded, report = Spreadsheet.load(path)
        assert report.mode != "degraded"
        assert any(
            record.get("op") == "set_formula" for record in report.app_records
        )
        with loaded.runtime.active():
            assert loaded.values() == expected
        assert loaded.runtime.check_invariants(raise_on_violation=False) == []

    def test_reload_after_edit_recomputes_only_the_dirty_region(self, tmp_path):
        path = str(tmp_path / "sheet.ckpt")
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            sheet = _build_sheet()
            sheet.values()
            sheet.save(path)
            sheet.set_formula(0, 0, "11")
            expected = sheet.values()
        rt._discarded = True

        fresh_id_space()
        loaded, _report = Spreadsheet.load(path)
        with loaded.runtime.active():
            assert loaded.values() == expected
        # Only R0C0's dependent region recomputes; the untouched cells
        # (and their formula trees) answer from the adopted checkpoint.
        full_rebuild = loaded.runtime.stats.executions
        fresh_id_space()
        oracle_rt = Runtime()
        with oracle_rt.active():
            _build_sheet().values()
        assert 0 < full_rebuild < oracle_rt.stats.executions

    def test_loaded_sheet_stays_incremental(self, tmp_path):
        path = str(tmp_path / "sheet.ckpt")
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            sheet = _build_sheet()
            sheet.values()
            sheet.save(path)
        rt._discarded = True

        fresh_id_space()
        loaded, _report = Spreadsheet.load(path)
        with loaded.runtime.active():
            loaded.set_formula(0, 0, "100")
            assert loaded.value(1, 0) == 107
            assert loaded.value(1, 1) == 207
        assert loaded.runtime.check_invariants(raise_on_violation=False) == []

    def test_env_valued_chains_recompute_but_stay_correct(self, tmp_path):
        path = str(tmp_path / "sheet.ckpt")
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            sheet = _build_sheet()
            sheet.set_formula(2, 2, "let x = R1C1 in x + x ni")
            expected = sheet.values()
            sheet.save(path)
        rt._discarded = True

        fresh_id_space()
        loaded, report = Spreadsheet.load(path)
        assert report.mode == "clean"
        with loaded.runtime.active():
            assert loaded.values() == expected
        # `let` evaluates through Env-valued procedure chains, which the
        # JSON codec cannot encode: those nodes drop out of the
        # checkpoint and re-evaluate on load (the documented codec
        # caveat) — exact values, partial warm start.
        assert loaded.runtime.stats.executions > 0
        assert loaded.runtime.check_invariants(raise_on_violation=False) == []

    def test_load_matches_a_fresh_build(self, tmp_path):
        path = str(tmp_path / "sheet.ckpt")
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            sheet = _build_sheet()
            sheet.values()
            sheet.save(path)
        rt._discarded = True

        fresh_id_space()
        loaded, _report = Spreadsheet.load(path)
        with loaded.runtime.active():
            assert loaded.values() == _fresh_values()


class TestRedoState:
    def test_edit_history_rides_the_checkpoint_and_the_wal_tail(self, tmp_path):
        path = str(tmp_path / "sheet.ckpt")
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            sheet = Spreadsheet(2, 2)
            sheet.set_formula(1, 1, "3")  # no persistence yet: not history
            sheet.save(path)
            sheet.set_formula(0, 0, 5)
            sheet.bulk_update([(0, 1, "R0C0 + 1"), (0, 0, "6")])
            sheet.save(path)
            sheet.set_formula(1, 0, "R0C1 + R1C1")  # WAL tail only
        rt._discarded = True

        fresh_id_space()
        loaded, _report = Spreadsheet.load(path)
        assert loaded.edits == [
            [0, 0, 5], [0, 1, "R0C0 + 1"], [0, 0, "6"], [1, 0, "R0C1 + R1C1"]
        ]
        with loaded.runtime.active():
            assert loaded.value(1, 0) == 10

    def test_rolled_back_batch_stays_out_of_the_checkpoint(self, tmp_path):
        path = str(tmp_path / "sheet.ckpt")
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            sheet = Spreadsheet(2, 2)
            sheet.save(path)
            sheet.set_formula(0, 0, "5")
            with pytest.raises(FormulaError):
                sheet.bulk_update(
                    [(0, 0, "99"), (0, 1, "R0C0 +")], rollback_on_error=True
                )
            assert sheet.value(0, 0) == 5
            # The refused tree's generation stays spent: the next edit
            # mints fresh stable ids instead of reusing its ones.
            assert sheet._next_gen[(0, 0)] == 2
            sheet.save(path)
        rt._discarded = True

        fresh_id_space()
        loaded, _report = Spreadsheet.load(path)
        with loaded.runtime.active():
            assert loaded.value(0, 0) == 5
        assert loaded.edits == [[0, 0, "5"]]


class TestDegradedLoad:
    def test_corrupt_checkpoint_raises_a_typed_error(self, tmp_path):
        path = tmp_path / "sheet.ckpt"
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            sheet = _build_sheet()
            sheet.save(str(path))
        data = path.read_bytes()
        path.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
        # Without the checkpoint there is no app_state (dimensions), so
        # the sheet cannot even be sized — the one load failure mode
        # that surfaces as an exception rather than a degraded rebuild.
        with pytest.raises(SpreadsheetLoadError):
            Spreadsheet.load(str(path))

    def test_corrupt_wal_degrades_to_a_correct_rebuild(self, tmp_path):
        path = str(tmp_path / "sheet.ckpt")
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            sheet = _build_sheet()
            sheet.values()
            sheet.save(path)
            sheet.set_formula(0, 0, "11")
            expected = sheet.values()
        rt._discarded = True
        # A complete garbage line at the end is mid-log corruption (a
        # torn *final* append would have no newline).
        with open(path + ".wal", "ab") as fh:
            fh.write(b"scribble over the log\n")

        fresh_id_space()
        loaded, report = Spreadsheet.load(path)
        assert report.mode == "degraded"
        with loaded.runtime.active():
            # Slower — every formula re-evaluates — but never wrong: the
            # checkpointed sources plus the salvaged WAL prefix rebuild
            # the exact post-edit sheet.
            assert loaded.values() == expected
        assert loaded.runtime.stats.executions > 0
        assert loaded.runtime.check_invariants(raise_on_violation=False) == []

    def test_checkpoint_naming_another_codec_rebuilds_from_formulas(
        self, tmp_path
    ):
        """Values under any codec but JSON are never decoded, yet the
        formula sources beside them still rebuild the sheet (an unknown
        codec used to drop them, and the load raised)."""
        path = tmp_path / "sheet.ckpt"
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            sheet = _build_sheet()
            expected = sheet.values()
            sheet.save(str(path))
        rt._discarded = True
        header, body = path.read_bytes().split(b"\n", 1)
        payload = json.loads(body)
        payload["codec"] = "msgpack"
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        crc = zlib.crc32(body) & 0xFFFFFFFF
        path.write_bytes(b"ALPHONSE-CKPT v1 %08x %d\n" % (crc, len(body)) + body)

        fresh_id_space()
        loaded, report = Spreadsheet.load(str(path))
        assert report.mode == "degraded"
        assert "unsupported codec 'msgpack'" in report.reason
        with loaded.runtime.active():
            assert loaded.values() == expected
        assert loaded.runtime.stats.executions > 0
