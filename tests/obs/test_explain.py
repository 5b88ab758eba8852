"""The causal explain engine: rt.explain() chains from write to recompute."""

import json

import pytest

from repro import EAGER, Cell, cached
from repro.spreadsheet import Spreadsheet


class TestExplainBasics:
    def test_recomputed_chain(self, rt):
        rt.obs.enable()
        x = Cell(1, label="x")

        @cached
        def double():
            return x.get() * 2

        double()
        x.set(5)
        double()
        exp = rt.explain("double")
        assert exp.verdict == "recomputed"
        kinds = exp.kinds()
        assert kinds[0] == "write"
        assert "change-detected" in kinds
        assert "marked" in kinds
        assert kinds[-1] in ("re-executed", "quiescence-cut")
        assert exp.computed_from == ["x"]

    def test_first_execution(self, rt):
        rt.obs.enable()
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        f()
        exp = rt.explain("f")
        assert exp.verdict == "first-execution"
        assert "executed" in exp.kinds()

    def test_cached_no_change(self, rt):
        rt.obs.enable()
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        f()
        rt.obs.clear()  # forget the first execution
        f()  # pure cache hit
        exp = rt.explain("f")
        assert exp.verdict == "cached"
        assert "cache-hit" in exp.kinds()

    def test_storage_write_explained(self, rt):
        rt.obs.enable()
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        f()
        x.set(9)
        rt.flush()
        exp = rt.explain("x")
        assert exp.verdict == "recomputed"
        kinds = exp.kinds()
        assert kinds[0] == "write"
        assert "change-detected" in kinds
        assert "marked" in kinds  # the dependent it woke

    def test_same_value_write_is_quiescent(self, rt):
        rt.obs.enable()
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        f()
        x.set(1)  # same value: no change detected
        exp = rt.explain("x")
        assert exp.verdict == "quiescent"
        assert "no-change" in exp.kinds()

    def test_unknown_target(self, rt):
        rt.obs.enable()
        exp = rt.explain("nonexistent")
        assert exp.verdict == "never-demanded"
        assert exp.kinds() == ["unknown"]

    def test_poisoned_target(self, rt):
        rt.obs.enable()
        x = Cell(1, label="x")

        @cached
        def bad():
            x.get()
            raise ValueError("boom")

        with pytest.raises(Exception):
            bad()
        exp = rt.explain("bad")
        assert exp.verdict == "poisoned"
        assert "poisoned" in exp.kinds()
        poison_link = [l for l in exp.links if l.kind == "poisoned"][0]
        assert "ValueError" in poison_link.detail

    def test_explain_accepts_node_object(self, rt):
        rt.obs.enable()
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        f()
        node = next(n for n in rt.graph.nodes if n.label == "f()")
        assert rt.explain(node).target == "f()"

    def test_render_and_to_dict(self, rt):
        rt.obs.enable()
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        f()
        x.set(2)
        f()
        exp = rt.explain("f")
        text = exp.render()
        assert text.splitlines()[0].startswith("f(): ")
        assert "write" in text
        d = exp.to_dict()
        assert json.loads(json.dumps(d)) == d
        assert d["verdict"] == exp.verdict

    def test_answers_without_any_recording(self, rt):
        # no rt.obs.enable(): the kernel stamps causes on nodes anyway
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        f()
        exp = rt.explain("f")
        assert exp.verdict == "first-execution"
        assert exp.kinds() == ["executed"]
        assert exp.computed_from == ["x"]
        x.set(2)
        f()
        exp = rt.explain("f")
        assert exp.verdict == "recomputed"
        assert [(l.kind, l.label) for l in exp.links] == [
            ("write", "x"),
            ("change-detected", "x"),
            ("marked", "x"),
            ("marked", "f()"),
            ("re-executed", "f()"),
        ]

    def test_storage_lists_only_the_marks_it_caused(self, rt):
        rt.obs.enable()
        x = Cell(1, label="x")
        y = Cell(1, label="y")

        @cached
        def gx():
            return x.get()

        @cached
        def gy():
            return y.get()

        gx()
        gy()
        x.set(2)
        rt.flush()
        y.set(3)
        rt.flush()
        exp = rt.explain("x")
        assert exp.verdict == "recomputed"
        assert [(l.kind, l.label) for l in exp.links] == [
            ("write", "x"),
            ("change-detected", "x"),
            ("marked", "gx()"),
        ]

    def test_pending_names_what_invalidated_it(self, rt):
        rt.obs.enable()
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        f()
        x.set(2)
        rt.flush()  # marks f; nothing re-demands it
        exp = rt.explain("f")
        assert exp.verdict == "pending"
        assert [(l.kind, l.label) for l in exp.links] == [
            ("write", "x"),
            ("change-detected", "x"),
            ("marked", "x"),
            ("marked", "f()"),
        ]
        assert exp.links[-1].detail == "invalidated but not yet re-demanded"

    def test_chain_follows_the_path_propagation_took(self, rt):
        # Two routes from x to total.  The short one is cut by
        # quiescence, so the chain names the long one: the path the
        # marks took, not a shortest path in the graph.
        rt.obs.enable()
        x = Cell(1, label="x")

        @cached(strategy=EAGER)
        def short():
            return x.get() * 0

        @cached(strategy=EAGER)
        def long():
            return x.get() + 1

        @cached(strategy=EAGER)
        def longer():
            return long() * 2

        @cached
        def total():
            return short() + longer()

        total()
        x.set(5)
        total()
        exp = rt.explain("total")
        assert exp.verdict == "recomputed"
        assert [(l.kind, l.label) for l in exp.links] == [
            ("write", "x"),
            ("change-detected", "x"),
            ("marked", "x"),
            ("marked", "long()"),
            ("re-executed", "long()"),
            ("marked", "longer()"),
            ("re-executed", "longer()"),
            ("marked", "total()"),
            ("re-executed", "total()"),
        ]

    def test_cause_older_than_any_ring(self, rt):
        """A cause is found however many events followed it (the
        100,000-record ring explain once read would have wrapped)."""
        rt.obs.enable()
        events = []
        rt.events.subscribe_all(lambda *event: events.append(None))
        x = Cell(1, label="x")
        noise = Cell(0, label="noise")

        @cached
        def f():
            return x.get() * 2

        @cached
        def g():
            return noise.get()

        f()
        g()
        x.set(5)
        assert f() == 10
        written = len(events)
        i = 0
        while len(events) - written <= 100_000:  # unrelated traffic
            i += 1
            noise.set(i)
            g()
        exp = rt.explain("f")
        assert exp.verdict == "recomputed"
        assert exp.kinds()[:2] == ["write", "change-detected"]
        assert exp.links[0].label == "x"
        assert exp.links[-1].kind == "re-executed"
        storage = rt.explain("x")
        assert [(l.kind, l.label) for l in storage.links] == [
            ("write", "x"),
            ("change-detected", "x"),
            ("marked", "f()"),
        ]


class TestSpreadsheetAcceptance:
    def test_causal_chain_from_write_to_recomputed_cell(self, rt):
        """The ISSUE acceptance check: rt.explain() on the spreadsheet
        example returns the chain from the triggering write to the
        recomputed cell."""
        rt.obs.enable()
        sheet = Spreadsheet(3, 3)
        sheet.set_formula(0, 0, 5)
        sheet.set_formula(1, 1, "R0C0 + 2")
        assert sheet.value(1, 1) == 7
        sheet.set_formula(0, 0, 9)  # the triggering write
        assert sheet.value(1, 1) == 11  # the recomputation

        exp = rt.explain("R1C1")
        assert exp.verdict == "recomputed"
        kinds = exp.kinds()
        # the full causal story, in order: write -> change-detected ->
        # marked ... -> re-executed (of the target itself)
        assert kinds[0] == "write"
        assert kinds[1] == "change-detected"
        assert "marked" in kinds
        assert kinds[-1] == "re-executed"
        assert exp.links[-1].label == "SheetCell.value(R1C1)"
        # the chain starts at the written cell's formula field
        assert exp.links[0].label == "SheetCell.func"
        # and its text rendering is presentable
        text = exp.render()
        assert "recomputed" in text and "write" in text

    def test_unedited_cell_stays_cached(self, rt):
        rt.obs.enable()
        sheet = Spreadsheet(2, 2)
        sheet.set_formula(0, 0, 5)
        sheet.set_formula(1, 1, "R0C0 + 2")
        sheet.value(1, 1)
        sheet.value(0, 1)  # independent empty cell
        rt.obs.clear()
        sheet.value(0, 1)
        exp = rt.explain("R0C1")
        assert exp.verdict == "cached"
