"""Same-shape formula edits write the changed leaves of the live tree.

A formula whose productions match the cell's live tree keeps the tree,
its generation and every stable id; only the terminals that differ get
tracked writes (Algorithm 10's edit of a leaf).  Any other formula
builds a new tree, as a first formula does.
"""

import json

import pytest

from repro import Runtime
from repro.ag.expr import num, plus, root
from repro.baselines.exhaustive import ExhaustiveSpreadsheet
from repro.persist.snapshot import read_checkpoint
from repro.persist.wal import WriteAheadLog
from repro.serve.loadgen import _replay_serially
from repro.spreadsheet import Spreadsheet, parse_formula


def _layered_formula(row, col, cols, k):
    """Row 0: a constant; below: the cell above, its right neighbour
    (wrapping) and a constant."""
    if row == 0:
        return k
    return f"R{row - 1}C{col} + R{row - 1}C{(col + 1) % cols} + {k}"


def _layered(rows, cols):
    sheet = Spreadsheet(rows, cols)
    for r in range(rows):
        for c in range(cols):
            sheet.set_formula(r, c, _layered_formula(r, c, cols, 10 + r + c))
    return sheet


def _wal_records(path):
    return WriteAheadLog.scan(path + ".wal").records


def _eval_shape(shape, sheet, env):
    tag = shape[0]
    if tag == "int":
        return shape[1]
    if tag == "id":
        return env[shape[1]]
    if tag == "cell":
        return sheet.value(shape[1], shape[2])
    if tag == "sum":
        _, r1, c1, r2, c2 = shape
        return sum(
            sheet.value(r, c)
            for r in range(min(r1, r2), max(r1, r2) + 1)
            for c in range(min(c1, c2), max(c1, c2) + 1)
        )
    if tag == "plus":
        return _eval_shape(shape[1], sheet, env) + _eval_shape(shape[2], sheet, env)
    bound = _eval_shape(shape[2], sheet, env)
    return _eval_shape(shape[3], sheet, dict(env, **{shape[1]: bound}))


def _exhaustive_values(sheet):
    """The sheet's formula sources evaluated from scratch."""
    oracle = ExhaustiveSpreadsheet(sheet.rows, sheet.cols)
    for (row, col), (source, _gen) in sheet._sources.items():
        shape = parse_formula(source, build=False) if isinstance(source, str) else ("int", source)
        oracle.set_formula(row, col, lambda s, shape=shape: _eval_shape(shape, s, {}))
    return oracle.values()


class TestSameShapeEdits:
    def test_edit_of_an_evaluated_cell_creates_no_nodes(self, rt):
        sheet = _layered(4, 4)
        sheet.values()
        nodes = len(rt.graph.nodes)
        gens = dict(sheet._next_gen)
        before = rt.stats.snapshot()
        sheet.set_formula(2, 1, "R1C1 + R1C2 + 99")  # a new constant
        sheet.set_formula(0, 3, 42)
        assert sheet.values() == _exhaustive_values(sheet)
        delta = rt.stats.delta(before)
        assert delta["storage_nodes_created"] == 0
        assert delta["procedure_nodes_created"] == 0
        assert len(rt.graph.nodes) == nodes
        assert sheet._next_gen == gens
        # One leaf each: the IntExp's int.
        assert delta["modifies"] == 2

    def test_identical_formula_writes_nothing_but_is_logged(self, rt, tmp_path):
        path = str(tmp_path / "sheet")
        sheet = Spreadsheet(2, 2)
        sheet.save(path)
        sheet.set_formula(0, 0, 4)
        sheet.set_formula(1, 0, "R0C0 + 1")
        sheet.values()
        records = len(_wal_records(path))
        before = rt.stats.snapshot()
        sheet.set_formula(1, 0, "R0C0 + 1")
        assert rt.stats.delta(before)["modifies"] == 0
        assert sheet.edits[-2:] == [[1, 0, "R0C0 + 1"], [1, 0, "R0C0 + 1"]]
        new = _wal_records(path)[records:]
        assert [(r["t"], r["d"]["source"]) for r in new] == [("a", "R0C0 + 1")]

    def test_ten_thousand_edits_keep_the_graph_and_checkpoint_flat(self, rt, tmp_path):
        rows = cols = 8
        path = str(tmp_path / "sheet")
        sheet = _layered(rows, cols)
        sheet.save(path)
        sheet.values()
        nodes = len(rt.graph.nodes)
        assert nodes == 1056
        sheet.save(path)
        before = read_checkpoint(path)
        size_before = len(json.dumps(before))
        for i in range(10_000):
            row, col = divmod(i % (rows * cols), cols)
            sheet.set_formula(row, col, _layered_formula(row, col, cols, 10 + i % 89))
            if i % 100 == 99:
                assert sheet.values() == _exhaustive_values(sheet)
                assert len(rt.graph.nodes) == nodes
        sheet.save(path)
        after = read_checkpoint(path)
        assert len(after["nodes"]) == len(before["nodes"])
        assert len(after["edges"]) == len(before["edges"])
        assert len(after["app_state"]["edits"]) == len(before["app_state"]["edits"]) + 10_000
        # Without the edit history, the checkpoint is the set-up's, give
        # or take the width of the numbers in it.
        grown_by_edits = len(json.dumps(after["app_state"]["edits"])) - len(
            json.dumps(before["app_state"]["edits"])
        )
        assert abs(len(json.dumps(after)) - grown_by_edits - size_before) < size_before // 50

    def test_out_of_range_sum_corner_is_refused_before_anything_is_written(
        self, rt, tmp_path
    ):
        path = str(tmp_path / "sheet")
        sheet = Spreadsheet(3, 3)
        sheet.save(path)
        sheet.set_formula(0, 0, 1)
        sheet.set_formula(0, 1, 2)
        sheet.set_formula(1, 1, "SUM(R0C0:R0C1)")
        assert sheet.value(1, 1) == 3
        sources, edits = dict(sheet._sources), list(sheet.edits)
        records = _wal_records(path)
        before = rt.stats.snapshot()
        with pytest.raises(IndexError):
            sheet.set_formula(1, 1, "SUM(R0C0:R5C1)")
        assert rt.stats.delta(before)["modifies"] == 0
        assert sheet.value(1, 1) == 3
        assert sheet._sources == sources
        assert sheet.edits == edits
        assert _wal_records(path) == records

    def test_retargeted_reference_and_renamed_let_read_the_exhaustive_value(self, rt):
        sheet = Spreadsheet(3, 3)
        for col, value in enumerate((1, 2, 3)):
            sheet.set_formula(0, col, value)
        sheet.set_formula(1, 0, "R0C0 + 10")
        sheet.set_formula(2, 2, "let x = R1C0 in x + x ni")
        sheet.set_formula(2, 0, "SUM(R0C0:R1C0)")
        assert sheet.values() == _exhaustive_values(sheet)
        gens = dict(sheet._next_gen)
        sheet.set_formula(1, 0, "R0C2 + 10")  # retargeted
        sheet.set_formula(2, 2, "let y = R0C1 in y + y ni")  # renamed and retargeted
        sheet.set_formula(2, 0, "SUM(R1C2:R0C1)")  # both corners moved
        assert sheet._next_gen == gens
        assert sheet.values() == _exhaustive_values(sheet)
        assert sheet.value(2, 2) == 4
        assert sheet.value(2, 0) == 5

    def test_every_text_edit_is_parsed_once_through_parse_formula(self, rt, monkeypatch):
        # Looked up on the module at each call, so a wrapper installed
        # there (as the benchmark's tracer does) sees every parse.
        from repro.spreadsheet import formula

        parsed = []
        real = formula.parse_formula

        def spy(text, *args, **kwargs):
            parsed.append(text)
            return real(text, *args, **kwargs)

        monkeypatch.setattr(formula, "parse_formula", spy)
        sheet = Spreadsheet(2, 2)
        sheet.set_formula(0, 0, "1 + 2")  # first formula
        sheet.set_formula(0, 0, "3 + 4")  # same shape
        sheet.set_formula(0, 0, "R1C1")  # new shape
        sheet.set_formula(1, 1, 7)  # an int is not parsed
        assert parsed == ["1 + 2", "3 + 4", "R1C1"]
        assert sheet.values() == [[7, 0], [0, 7]]

    def test_a_tree_installed_by_assignment_is_replaced_not_diffed(self, rt):
        sheet = Spreadsheet(1, 2)
        cell = sheet.cell_at(0, 0)
        installed = root(plus(num(1), num(2)))
        cell.func = installed
        sheet.set_formula(0, 0, "3 + 4")
        assert cell.func is not installed
        assert sheet.value(0, 0) == 7
        # A tree set_formula built, put back by assignment after the
        # cell moved on to another generation, is not the live tree
        # either.
        earlier = cell.func
        sheet.set_formula(0, 0, "R0C1")
        cell.func = earlier
        sheet.set_formula(0, 0, "5 + 6")
        assert cell.func is not earlier
        assert earlier.field_cell("exp").peek().field_cell("exp1").peek().field_cell(
            "int"
        ).peek() == 3
        assert sheet.value(0, 0) == 11
        assert sheet._next_gen[(0, 0)] == 3


def _int_leaf(tree, *path):
    node = tree
    for name in path:
        node = node.field_cell(name).peek()
    return node.field_cell("int").peek()


class TestTreesNotBuiltFromASource:
    """Only a tree ``set_formula`` built from text or an int takes leaf
    writes: a prebuilt tree may share a node with itself, with another
    cell or with its caller, and a write into it would reach them too."""

    def test_a_node_shared_within_a_prebuilt_tree(self, rt):
        sheet = Spreadsheet(1, 1)
        n = num(1)
        sheet.set_formula(0, 0, plus(n, n))
        assert sheet.value(0, 0) == 2
        sheet.set_formula(0, 0, "1 + 2")
        assert sheet.value(0, 0) == 3
        assert n.field_cell("int").peek() == 1
        assert _replay_serially([[0, 0, sheet._sources[(0, 0)][0]]], 1, 1) == [[3]]

    def test_a_prebuilt_tree_in_two_cells(self, rt):
        sheet = Spreadsheet(1, 2)
        shared = plus(num(1), num(2))
        sheet.set_formula(0, 0, shared)
        sheet.set_formula(0, 1, shared)
        sheet.set_formula(0, 0, "1 + 5")
        assert sheet.values() == [[6, 3]]

    def test_a_prebuilt_tree_its_caller_still_holds(self, rt):
        sheet = Spreadsheet(1, 1)
        held = plus(num(1), num(2))
        sheet.set_formula(0, 0, held)
        sheet.set_formula(0, 0, "1 + 5")
        assert sheet.value(0, 0) == 6
        assert _int_leaf(held, "exp2") == 2

    def test_part_of_a_live_tree_installed_in_another_cell(self, rt):
        sheet = Spreadsheet(2, 1)
        sheet.set_formula(0, 0, "1 + 2")
        copied = sheet.cell_at(0, 0).func.field_cell("exp").peek()
        sheet.set_formula(1, 0, copied)
        sheet.set_formula(0, 0, "1 + 5")
        assert sheet.values() == [[6], [3]]
        assert _int_leaf(copied, "exp2") == 2


class TestLoadReplay:
    def test_same_shape_wal_tail_replays_into_the_checkpointed_tree(self, tmp_path):
        from repro.persist.ids import fresh_id_space

        path = str(tmp_path / "sheet")
        fresh_id_space()
        rt = Runtime()
        with rt.active():
            sheet = _layered(3, 3)
            sheet.save(path)
            sheet.values()
            sheet.save(path)
            sheet.set_formula(0, 0, 77)
            sheet.set_formula(2, 1, "R1C1 + R1C2 + 5")
            expected = sheet.values()
        rt._discarded = True

        fresh_id_space()
        loaded, report = Spreadsheet.load(path)
        assert report.mode == "replayed"
        with loaded.runtime.active():
            assert loaded.values() == expected
        # Both edits were written into the trees the checkpoint named:
        # no generation was minted past the set-up's.
        assert set(loaded._next_gen.values()) == {1}
        assert loaded.runtime.check_invariants(raise_on_violation=False) == []
