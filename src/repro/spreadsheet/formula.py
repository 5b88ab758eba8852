"""Formula text -> expression trees for the spreadsheet.

Grammar (exactly the paper's expression AG plus cell references)::

    formula  := expr
    expr     := term { "+" term }
    term     := INT
              | IDENT                        -- let-bound identifier
              | "R" INT "C" INT              -- cell reference (CellExp)
              | "SUM" "(" cellref ":" cellref ")"   -- range aggregate
              | "let" IDENT "=" expr "in" expr "ni"
              | "(" expr ")"

Cell references use the paper's (x, y) array indexing, written ``R2C7``.
This module is the concrete syntax: the parser turns text into a plain
:data:`Shape`.  The productions a shape names, and the unrooted ``Exp``
trees built from it, live with the sheet in :mod:`.model`
(``Spreadsheet.set_formula`` wraps a tree in a RootExp so inherited
environments bottom out).  A shape is also what ``set_formula``
compares with a cell's live tree, to write only the leaves that
changed.
"""

from __future__ import annotations

import re
from typing import Any, List, Optional, Tuple, TYPE_CHECKING, Union

from ..core.errors import AlphonseError
from ..ag.expr import Exp

if TYPE_CHECKING:  # pragma: no cover
    from .model import Spreadsheet


class FormulaError(AlphonseError):
    """Malformed formula text."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<cellref>R(?P<row>\d+)C(?P<col>\d+)\b)
  | (?P<int>\d+)
  | (?P<kw>\b(?:let|in|ni|SUM)\b)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[+=():])
    """,
    re.VERBOSE,
)

Token = Tuple[str, Any]

#: A parsed formula as nested tuples, one per production: the tag, then
#: its terminals, then its subexpressions —
#: ``("int", n)``, ``("id", name)``, ``("cell", row, col)``,
#: ``("sum", r1, c1, r2, c2)``, ``("plus", left, right)`` and
#: ``("let", name, bound, body)``.
Shape = Tuple[Any, ...]


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise FormulaError(
                f"unexpected character {text[pos]!r} at position {pos} "
                f"in formula {text!r}"
            )
        pos = match.end()
        if match.lastgroup == "ws" or match.group("ws"):
            continue
        if match.group("cellref"):
            tokens.append(
                ("cellref", (int(match.group("row")), int(match.group("col"))))
            )
        elif match.group("int"):
            tokens.append(("int", int(match.group("int"))))
        elif match.group("kw"):
            tokens.append((match.group("kw"), match.group("kw")))
        elif match.group("ident"):
            tokens.append(("ident", match.group("ident")))
        else:
            tokens.append((match.group("op"), match.group("op")))
    tokens.append(("eof", None))
    return tokens


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> Token:
        token = self.next()
        if token[0] != kind:
            raise FormulaError(f"expected {kind!r}, got {token[0]!r}")
        return token

    def parse_expr(self) -> Shape:
        node = self.parse_term()
        while self.peek()[0] == "+":
            self.next()
            node = ("plus", node, self.parse_term())
        return node

    def parse_term(self) -> Shape:
        kind, value = self.next()
        if kind == "int":
            return ("int", value)
        if kind == "ident":
            return ("id", value)
        if kind == "cellref":
            return ("cell", *value)
        if kind == "SUM":
            self.expect("(")
            first = self.expect("cellref")[1]
            self.expect(":")
            second = self.expect("cellref")[1]
            self.expect(")")
            return ("sum", *first, *second)
        if kind == "let":
            name = self.expect("ident")[1]
            self.expect("=")
            bound = self.parse_expr()
            self.expect("in")
            body = self.parse_expr()
            self.expect("ni")
            return ("let", name, bound, body)
        if kind == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        raise FormulaError(f"unexpected token {kind!r}")


def parse_formula(
    text: str, sheet: Optional["Spreadsheet"] = None, *, build: bool = True
) -> Union[Exp, Shape]:
    """Parse formula text into an (unrooted) expression tree.

    ``sheet`` provides CellExp construction for ``RnCm`` references; pass
    None for pure expressions (used by the AG tests).  With
    ``build=False`` the plain :data:`Shape` is returned and no tree is
    built: ``Spreadsheet.set_formula`` parses every text edit this way,
    then either writes the shape into the cell's live tree or builds a
    new one from it.
    """
    stripped = text.strip()
    if stripped.startswith("="):
        stripped = stripped[1:]
    parser = _Parser(_tokenize(stripped))
    shape = parser.parse_expr()
    parser.expect("eof")
    if not build:
        return shape
    from .model import build_tree  # the productions live with the sheet

    return build_tree(shape, sheet)
