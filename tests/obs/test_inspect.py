"""GraphSnapshot: capture, exports, and before/after diffing."""

import json

import pytest

from repro import Cell, cached
from repro.obs import GraphSnapshot
from repro.spreadsheet import Spreadsheet


def _small_graph(rt):
    x = Cell(1, label="x")

    @cached
    def f():
        return x.get() + 1

    @cached
    def g():
        return f() * 2

    g()
    return x, f, g


class TestCapture:
    def test_nodes_and_edges(self, rt):
        _small_graph(rt)
        snap = rt.inspect()
        assert isinstance(snap, GraphSnapshot)
        labels = {n["label"] for n in snap.nodes}
        assert {"x", "f()", "g()"} <= labels
        assert len(snap.edges) >= 2  # x -> f, f -> g

    def test_node_fields(self, rt):
        _small_graph(rt)
        snap = rt.inspect()
        for n in snap.nodes:
            assert {
                "id", "label", "kind", "consistent", "pending", "height",
                "partition", "poisoned", "has_value",
            } == set(n)

    def test_heights_follow_dependencies(self, rt):
        _small_graph(rt)
        snap = rt.inspect()
        by_label = {n["label"]: n for n in snap.nodes}
        assert by_label["x"]["height"] == 0
        assert by_label["f()"]["height"] == 1
        assert by_label["g()"]["height"] == 2

    def test_partition_shared_by_connected_nodes(self, rt):
        _small_graph(rt)
        y = Cell(1, label="y")

        @cached
        def other():
            return y.get()

        other()
        snap = rt.inspect()
        by_label = {n["label"]: n for n in snap.nodes}
        assert by_label["x"]["partition"] == by_label["f()"]["partition"]
        assert by_label["y"]["partition"] != by_label["x"]["partition"]

    def test_capture_emits_no_events(self, rt):
        _small_graph(rt)
        before = rt.stats.snapshot()
        rt.inspect()
        assert rt.stats.snapshot() == before

    def test_poisoned_flagged(self, rt):
        x = Cell(1, label="x")

        @cached
        def bad():
            x.get()
            raise ValueError("nope")

        with pytest.raises(Exception):
            bad()
        snap = rt.inspect()
        by_label = {n["label"]: n for n in snap.nodes}
        assert by_label["bad()"]["poisoned"] is True

    def test_find(self, rt):
        _small_graph(rt)
        snap = rt.inspect()
        assert [n["label"] for n in snap.find("g(")] == ["g()"]


class TestExports:
    def test_json_round_trip(self, rt):
        _small_graph(rt)
        snap = rt.inspect()
        loaded = json.loads(snap.to_json())
        assert len(loaded["nodes"]) == len(snap)
        assert len(loaded["edges"]) == len(snap.edges)

    def test_dot_structure(self, rt):
        _small_graph(rt)
        dot = rt.inspect().to_dot()
        assert dot.startswith("digraph alphonse {")
        assert dot.rstrip().endswith("}")
        assert "shape=ellipse" in dot  # storage
        assert "shape=box" in dot  # procedures
        assert "->" in dot

    def test_dirty_nodes_red(self, rt):
        x, f, g = _small_graph(rt)
        x.set(99)  # marks dependents inconsistent; don't re-demand
        dot = rt.inspect().to_dot()
        assert "color=red" in dot

    def test_write_by_extension(self, rt, tmp_path):
        _small_graph(rt)
        snap = rt.inspect()
        dot_path = tmp_path / "g.dot"
        json_path = tmp_path / "g.json"
        snap.write(str(dot_path))
        snap.write(str(json_path))
        assert dot_path.read_text().startswith("digraph")
        assert json.loads(json_path.read_text())["nodes"]

    def test_max_nodes_truncation(self, rt):
        _small_graph(rt)
        dot = rt.inspect().to_dot(max_nodes=1)
        assert "more" in dot


class TestDiff:
    def test_no_change_is_empty(self, rt):
        _small_graph(rt)
        a = rt.inspect()
        b = rt.inspect()
        assert a.diff(b).empty
        assert a.diff(b).render() == "(no graph changes)"

    def test_write_flips_consistency(self, rt):
        x, f, g = _small_graph(rt)
        before = rt.inspect()
        x.set(42)  # x enters its inconsistent set; drain not yet run
        after = rt.inspect()
        delta = before.diff(after)
        assert not delta.empty
        changed = {c["label"]: c for c in delta.changed}
        assert "x" in changed
        assert changed["x"]["pending"] == (False, True)
        assert "~" in delta.render()

    def test_new_nodes_reported(self, rt):
        _small_graph(rt)
        before = rt.inspect()
        y = Cell(5, label="y")

        @cached
        def h():
            return y.get()

        h()
        delta = before.diff(rt.inspect())
        added_labels = {n["label"] for n in delta.added}
        assert {"y", "h()"} <= added_labels
        assert delta.edges_added


class TestSpreadsheetDump:
    def test_dump_graph_returns_and_writes_dot(self, rt, tmp_path):
        sheet = Spreadsheet(2, 2)
        sheet.set_formula(0, 0, 5)
        sheet.set_formula(1, 1, "R0C0 + 2")
        sheet.values()
        path = tmp_path / "sheet.dot"
        dot = sheet.dump_graph(str(path))
        assert dot.startswith("digraph")
        assert "SheetCell.value(R1C1)" in dot
        assert path.read_text().startswith("digraph")
