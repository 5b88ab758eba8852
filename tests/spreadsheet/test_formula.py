"""Formula parser tests."""

import pytest

from repro.ag.expr import IdExp, IntExp, LetExp, PlusExp
from repro.spreadsheet import FormulaError, Spreadsheet, parse_formula
from repro.spreadsheet.model import CellExp


class TestParsing:
    def test_integer(self):
        tree = parse_formula("42")
        assert isinstance(tree, IntExp)
        assert tree.field_cell("int").peek() == 42

    def test_sum_left_associative(self):
        tree = parse_formula("1 + 2 + 3")
        assert isinstance(tree, PlusExp)
        left = tree.field_cell("exp1").peek()
        assert isinstance(left, PlusExp)

    def test_identifier(self):
        tree = parse_formula("abc")
        assert isinstance(tree, IdExp)

    def test_let_expression(self):
        tree = parse_formula("let x = 1 in x + x ni")
        assert isinstance(tree, LetExp)
        assert tree.field_cell("id").peek() == "x"

    def test_nested_lets(self):
        tree = parse_formula("let x = 1 in let y = 2 in x + y ni ni")
        assert isinstance(tree, LetExp)
        body = tree.field_cell("exp2").peek()
        assert isinstance(body, LetExp)

    def test_parentheses(self):
        tree = parse_formula("(1 + 2) + 3")
        assert isinstance(tree, PlusExp)

    def test_leading_equals_ignored(self):
        tree = parse_formula("= 5")
        assert isinstance(tree, IntExp)

    def test_cell_reference_requires_sheet(self):
        sheet = Spreadsheet(3, 3)
        tree = parse_formula("R1C2", sheet)
        assert isinstance(tree, CellExp)
        assert tree.field_cell("x").peek() == 1
        assert tree.field_cell("y").peek() == 2

    def test_cell_reference_without_sheet_rejected(self):
        with pytest.raises(FormulaError, match="without a sheet"):
            parse_formula("R0C0")

    def test_identifier_starting_with_R_is_not_a_cellref(self):
        tree = parse_formula("Rate")
        assert isinstance(tree, IdExp)

    def test_whitespace_insensitive(self):
        a = parse_formula("1+2")
        b = parse_formula("  1   +   2 ")
        assert type(a) is type(b) is PlusExp

    def test_shape_without_a_tree(self):
        text = "let x = SUM(R0C0:R1C2) in x + R3C4 + 5 ni"
        assert parse_formula(text, build=False) == (
            "let",
            "x",
            ("sum", 0, 0, 1, 2),
            ("plus", ("plus", ("id", "x"), ("cell", 3, 4)), ("int", 5)),
        )


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "1 +",
            "+ 1",
            "let x 1 in x ni",
            "let x = 1 in x",  # missing ni
            "(1 + 2",
            "1 2",
            "let = 1 in 2 ni",
            "$",
        ],
    )
    def test_malformed_formulas_rejected(self, text):
        with pytest.raises(FormulaError):
            parse_formula(text)
