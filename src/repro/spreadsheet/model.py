"""Spreadsheet model (paper Algorithm 10).

"First, we define a Cell object consisting of an expression tree of type
Exp, and a maintained method value that simply returns the value of the
expression tree.  An array of Cell objects represents the spreadsheet.
In order to allow the cell functions to reference the values of other
cells, we add a CellExp production to our expression trees.  This
production uses two integer valued terminal fields to select another
cell in the array and return the result of its value method."
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..core import TrackedObject, get_runtime, maintained
from ..core.errors import AlphonseError, CycleError, NodeExecutionError
from ..core.node import NO_VALUE
from ..ag.expr import Exp, IdExp, IntExp, LetExp, PlusExp, RootExp, root
from . import formula as _formula

#: What :meth:`Spreadsheet.display` shows for a cell whose formula (or
#: any cell it reads) raised — the classic spreadsheet error marker.
ERROR_MARKER = "#ERR!"

#: What :meth:`Spreadsheet.display` shows under ``allow_stale=True`` for
#: a failed cell with no last-known-good value to fall back on.
STALE_MARKER = "#STALE?"


class CircularReference(AlphonseError):
    """A cell formula transitively references its own cell."""

    def __init__(self, row: int, col: int) -> None:
        super().__init__(f"circular reference involving cell R{row}C{col}")
        self.row = row
        self.col = col


class SpreadsheetLoadError(AlphonseError):
    """:meth:`Spreadsheet.load` found no usable sheet state at the path.

    Raised when even degraded recovery could not surface the sheet's
    dimensions and formula sources (e.g. the checkpoint itself is
    corrupt and there is no readable WAL prefix to salvage them from).
    """

    def __init__(self, path: str, detail: Optional[str] = None) -> None:
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"no spreadsheet state recoverable from {path!r}{suffix}")
        #: The message without the path.
        self.reason = f"no spreadsheet state recoverable{suffix}"


class SheetCell(TrackedObject):
    """One spreadsheet cell: a formula tree and a maintained value.

    The paper's ``Cell = OBJECT func : Exp; METHODS (*MAINTAINED*)
    value() := ExpVal``.  An empty cell evaluates to 0.
    """

    _fields_ = ("func",)

    def __init__(self, row: int = 0, col: int = 0, **kw: Any) -> None:
        super().__init__(**kw)
        self.row = row  # untracked coordinates (fixed for life)
        self.col = col

    @maintained
    def value(self) -> Any:
        func = self.func
        if func is None:
            return 0
        return func.value()

    def __repr__(self) -> str:
        # Coordinates, not identity: dependency-graph node labels render
        # through repr, and "SheetCell.value(R1C1)" is what explain /
        # dump_graph users grep for.
        return f"R{self.row}C{self.col}"


class CellExp(Exp):
    """EXP ::= cell[x, y] — the cross-cell reference production.

    ``x``/``y`` are tracked terminal fields (editing a reference's target
    coordinates is itself a change the runtime reacts to).  The sheet is
    an untracked construction-time constant: the grid object never
    changes, only its cells' contents do, and those are tracked.
    """

    _fields_ = ("x", "y")

    def __init__(self, sheet: "Spreadsheet", **kw: Any) -> None:
        super().__init__(**kw)
        self.sheet = sheet

    @maintained
    def value(self) -> Any:
        return self.sheet.cell_at(self.x, self.y).value()


class RangeSumExp(Exp):
    """EXP ::= SUM(cell : cell) — rectangular range aggregation.

    An extension production in the spirit of Algorithm 10's CellExp: the
    four coordinates are tracked terminal fields, and the value depends
    on every cell in the rectangle — an edit to any of them re-derives
    the sum, edits outside leave it cached.
    """

    _fields_ = ("r1", "c1", "r2", "c2")

    def __init__(self, sheet: "Spreadsheet", **kw: Any) -> None:
        super().__init__(**kw)
        self.sheet = sheet

    @maintained
    def value(self) -> Any:
        r1, c1, r2, c2 = self.r1, self.c1, self.r2, self.c2
        lo_r, hi_r = min(r1, r2), max(r1, r2)
        lo_c, hi_c = min(c1, c2), max(c1, c2)
        total = 0
        for row in range(lo_r, hi_r + 1):
            for col in range(lo_c, hi_c + 1):
                total += self.sheet.cell_at(row, col).value()
        return total


class Spreadsheet:
    """A fixed-size grid of :class:`SheetCell` objects.

    The mutator-facing API: set a formula (text or prebuilt Exp) and read
    values; the runtime keeps every dependent cell consistent.
    """

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("spreadsheet dimensions must be >= 1")
        self.rows = rows
        self.cols = cols
        self._grid: List[List[SheetCell]] = [
            [SheetCell(row=r, col=c) for c in range(cols)] for r in range(rows)
        ]
        #: Latest replayable formula per (row, col), as ``(source, gen)``
        #: — source is text, int, or None for an explicit clear; gen is
        #: the generation of the tree it was built as or written into.
        #: This is the app-level redo state :meth:`save` checkpoints and
        #: :meth:`load` replays.
        self._sources: Dict[Tuple[int, int], Tuple[Union[str, int, None], int]] = {}
        #: Next set_formula generation per cell.  Each new tree takes
        #: one and mints a distinct stable-id namespace, so a formula of
        #: a new shape never claims the ids of the tree it replaced
        #: (adoption must not conflate tree generations); a same-shape
        #: edit is written into the live tree and takes none.
        self._next_gen: Dict[Tuple[int, int], int] = {}
        #: Every durable formula edit in commit order, as ``[row, col,
        #: source]`` — the history a convergence check replays on a
        #: fresh runtime.  Appended only while a persistence manager is
        #: attached, in the same step that WAL-logs the edit, so it is
        #: exactly as durable as the sheet: :meth:`save` checkpoints it
        #: and :meth:`load` extends it with the replayed WAL tail.
        self.edits: List[List[Any]] = []
        #: The runtime this sheet was recovered under (set by load()).
        self.runtime: Optional[Any] = None
        # Durable identities (repro.persist.ids): grid coordinates name
        # each cell and its formula location, so a reloaded process can
        # adopt the checkpointed dependency graph instead of rebuilding.
        for r in range(rows):
            for c in range(cols):
                cell = self._grid[r][c]
                cell._persist_key = f"sheet:R{r}C{c}"
                cell.field_cell("func")._sid = f"sheet:R{r}C{c}.func"

    # -- addressing ----------------------------------------------------

    def cell_at(self, row: int, col: int) -> SheetCell:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"cell R{row}C{col} outside {self.rows}x{self.cols}")
        return self._grid[row][col]

    # -- mutation --------------------------------------------------------

    def set_formula(
        self,
        row: int,
        col: int,
        formula: Union[str, Exp, int, None],
        *,
        _gen: Optional[int] = None,
    ) -> None:
        """Install a formula: text (parsed), a prebuilt Exp, an int
        constant, or None to clear the cell.  A ``bool`` is refused
        with ``TypeError``: it is not a number a formula can hold.

        Text or an int with the same shape as the cell's live tree,
        production for production, is written into that tree when an
        earlier ``set_formula`` built it from text or an int (never a
        prebuilt Exp, which its caller may still hold or have installed
        elsewhere): only the leaves that differ — an ``IntExp.int``, a
        ``CellExp``'s coordinates, a SUM's corners, a ``let`` or
        identifier name — get ordinary tracked writes (Algorithm 10's
        tracked write to a leaf), and the tree keeps its generation and
        every stable id.  Any other formula builds a new tree under a
        new generation, whose stable ids
        (``sheet:R{row}C{col}.func@{gen}...``) no replaced tree holds.

        The assignment is also recorded as durable redo state: the
        replayable source is remembered for :meth:`save` and, when the
        runtime has a persistence manager attached, appended to the WAL
        as an application record so :meth:`load` can replay formula
        edits made after the last checkpoint — and to :attr:`edits`,
        the sheet's edit history.  The record is logged before the
        writes it explains, because a leaf's WAL record carries its new
        value: recovery must never push that value into a tree rebuilt
        from the source it replaced.  A prebuilt Exp using
        productions outside the formula grammar has no textual source
        and is skipped by that redo machinery (a reload rebuilds the
        cell empty); everything :mod:`repro.spreadsheet.formula` can
        parse — and everything built from :meth:`ref`,
        :meth:`range_sum` and the ``repro.ag.expr`` helpers — replays.

        ``_gen`` is the replay hook: :meth:`load` re-runs logged
        assignments under their original generation numbers, so an
        edit logged against the live tree's generation is written into
        it and the rebuilt trees mint exactly the stable ids the
        checkpoint holds.
        """
        if isinstance(formula, bool):
            raise TypeError(f"unsupported formula {formula!r}: a bool is not a number")
        cell = self.cell_at(row, col)
        shape: Optional[_formula.Shape] = None
        if isinstance(formula, str):
            # Looked up at call time, so a wrapper installed on the
            # module (the benchmark's tracer) times every parse.
            shape = _formula.parse_formula(formula, build=False)
        elif isinstance(formula, int):
            shape = ("int", formula)
        if shape is not None and self._write_leaves(cell, formula, shape, _gen):
            return
        key = (row, col)
        gen = self._next_gen.get(key, 0) if _gen is None else _gen
        self._next_gen[key] = max(self._next_gen.get(key, 0), gen + 1)
        tree: Optional[Exp]
        source: Union[str, int, None] = formula
        replayable = True
        if shape is not None:
            tree = build_tree(shape, self)
        elif formula is None:
            tree = None
        elif isinstance(formula, Exp):
            tree = formula
            try:
                source = _render_formula(tree)
            except _Unrenderable:
                source = None
                replayable = False
        else:
            raise TypeError(f"unsupported formula {formula!r}")
        if tree is not None:
            tree = root(tree)
            # Path-based stable ids over the fresh tree, before the cell
            # write publishes it: a reloaded process replaying the same
            # formula at the same generation adopts the checkpointed
            # nodes for the whole tree.
            _assign_tree_ids(tree, f"sheet:R{row}C{col}.func@{gen}")
            # Only a tree built here from a source may take leaf writes.
            tree._from_source = shape is not None
        if replayable:
            self._record(row, col, source, gen)
        else:
            self._sources.pop(key, None)
        cell.func = tree

    def _write_leaves(
        self,
        cell: SheetCell,
        formula: Union[str, int],
        shape: "_formula.Shape",
        gen: Optional[int],
    ) -> bool:
        """Write ``shape`` (parsed from ``formula``) into the cell's
        live tree if :meth:`set_formula` built that tree from a source
        at generation ``gen`` (by default the generation of the cell's
        source) and it has the shape's productions, each node still
        under its own path; return whether it did.

        Every check comes first — a SUM corner outside the sheet raises
        ``IndexError`` before anything is recorded or written — then
        the app record, then the tracked writes of the changed leaves.
        """
        row, col = cell.row, cell.col
        if gen is None:
            gen = self._sources.get((row, col), (None, None))[1]
        live = cell.field_cell("func").peek()
        path = f"sheet:R{row}C{col}.func@{gen}"
        if (
            gen is None
            or not getattr(live, "_from_source", False)
            or live._persist_key != path
        ):
            return False
        writes: List[Tuple[Any, Any]] = []
        if not _changed_leaves(live.field_cell("exp").peek(), shape, f"{path}.exp", self, writes):
            return False
        self._record(row, col, formula, gen)
        for location, value in writes:
            location.set(value)
        return True

    def _record(self, row: int, col: int, source: Union[str, int, None], gen: int) -> None:
        """Remember ``source`` as the cell's redo state and, while a
        persistence manager is attached, log it and add it to
        :attr:`edits`."""
        self._sources[(row, col)] = (source, gen)
        manager = get_runtime()._persist
        if manager is not None:
            manager.log_app(
                {"op": "set_formula", "row": row, "col": col, "source": source, "gen": gen}
            )
            self.edits.append([row, col, source])

    def clear(self, row: int, col: int) -> None:
        self.set_formula(row, col, None)

    def bulk_update(
        self,
        updates: Iterable[Tuple[int, int, Any]],
        *,
        rollback_on_error: bool = False,
    ) -> None:
        """Install many ``(row, col, formula)`` assignments as one batch.

        A paste or an imported block is a burst of writes whose
        intermediate states nobody will ever read, so the whole burst is
        wrapped in ``rt.batch()``: change detection happens once per
        cell against its pre-paste value, and dependents of several
        changed cells recompute once, not once per assignment.

        With ``rollback_on_error=True``, a failure partway through the
        burst (an unparsable formula, out-of-range coordinates) restores
        every cell already pasted — the sheet never keeps half a paste.
        When this call opened the outermost batch, the redo state rolls
        back with the cells: the formula sources :meth:`save`
        checkpoints and :attr:`edits`.  A rolled-back same-shape edit
        spent no generation (its leaf writes roll back like any tracked
        write); a rolled-back new tree's generation stays minted,
        because that tree may already have claimed its stable ids.

        With a persistence manager attached, the batch commits to the
        WAL as its app records followed by one batch record of its
        writes (see :meth:`set_formula` for why in that order).
        """
        rt = get_runtime()
        rewind = rollback_on_error and not rt.in_batch
        if rewind:
            sources, edit_count = dict(self._sources), len(self.edits)
        try:
            with rt.batch(rollback_on_error=rollback_on_error):
                for row, col, formula in updates:
                    self.set_formula(row, col, formula)
        except BaseException:
            if rewind:
                self._sources = sources
                del self.edits[edit_count:]
            raise

    # -- queries ---------------------------------------------------------

    def value(self, row: int, col: int) -> Any:
        """The cell's current value (incrementally maintained).

        Raises :class:`CircularReference` when the formula graph cycles
        through this cell.
        """
        try:
            return self.cell_at(row, col).value()
        except CycleError as exc:
            raise CircularReference(row, col) from exc

    def display(self, row: int, col: int, *, allow_stale: bool = False) -> Any:
        """The cell's value, with failures rendered as ``"#ERR!"``.

        A formula whose evaluation raised — in this cell or any cell it
        transitively reads — shows the error marker instead of
        propagating the exception; so does a circular reference.  Like a
        real spreadsheet, the marker is live: editing the offending cell
        heals every dependent on its next read.

        With ``allow_stale=True`` a failed cell degrades instead of
        erroring: the last value it successfully computed is shown (the
        staleness semantics of ``rt.read(..., staleness=ALLOW_STALE)``;
        see ``docs/robustness.md``), and only a cell that has *never*
        computed shows ``"#STALE?"``.  Circular references still render
        ``"#ERR!"`` — a cycle is a structural error, not a transient
        failure with a trustworthy previous value.
        """
        try:
            return self.value(row, col)
        except CircularReference:
            return ERROR_MARKER
        except NodeExecutionError as exc:
            if not allow_stale:
                return ERROR_MARKER
            poison = exc.poison
            if poison is not None and poison.stale_value is not NO_VALUE:
                return poison.stale_value
            return STALE_MARKER

    def staleness(self, row: int, col: int) -> Optional["StalenessInfo"]:
        """Why (and how long) a cell's display value is degraded.

        Returns ``None`` for a healthy cell; for a failed one, a
        :class:`~repro.resil.StalenessInfo` naming the originating
        procedure, the root error, and the age of the last-known-good
        value (``age_seconds`` is ``None`` when there is none).
        """
        from ..resil.stale import StalenessInfo

        try:
            self.value(row, col)
        except CircularReference as exc:
            return StalenessInfo(True, f"R{row}C{col}", exc, None)
        except NodeExecutionError as exc:
            poison = exc.poison
            age = None
            if (
                poison is not None
                and poison.stale_value is not NO_VALUE
                and poison.stamp is not None
            ):
                age = time.monotonic() - poison.stamp
            return StalenessInfo(True, exc.origin, exc.root, age)
        return None

    def values(self) -> List[List[Any]]:
        """Evaluate the whole sheet (row-major)."""
        return [
            [self.value(r, c) for c in range(self.cols)]
            for r in range(self.rows)
        ]

    def dump_graph(self, path: Optional[str] = None) -> str:
        """Snapshot the sheet's dependency graph as Graphviz DOT.

        Returns the DOT text; with ``path`` also writes it (``.json``
        extension switches to the JSON export).  A formula cell shows up
        as its ``value()`` procedure node wired to the cells it reads —
        the visible form of the paper's claim that the dependency graph
        *is* the spreadsheet's recalculation structure.
        """
        from ..obs import GraphSnapshot

        snapshot = GraphSnapshot.capture(get_runtime())
        if path is not None:
            snapshot.write(path)
        return snapshot.to_dot()

    # -- durability (repro.persist; docs/persistence.md) ---------------

    def _app_state(self) -> Dict[str, Any]:
        """The sheet's replayable redo state and edit history for a
        checkpoint."""
        return {
            "rows": self.rows,
            "cols": self.cols,
            "formulas": [
                [r, c, source, gen]
                for (r, c), (source, gen) in sorted(
                    self._sources.items(), key=lambda item: item[0]
                )
            ],
            "edits": self.edits,
        }

    def save(self, path: str) -> str:
        """Checkpoint the sheet — dependency graph, formula sources and
        edit history.

        Attaches a persistence manager (checkpoints are inspectable JSON
        text) when the runtime has none, so every later
        :meth:`set_formula` is WAL-logged and survives a crash before
        the next ``save``.  Returns ``path``.
        """
        rt = get_runtime()
        manager = rt._persist
        if manager is None:
            manager = rt.persist_to(path)
        if manager.path == path:
            manager.checkpoint(app_state=self._app_state())
        else:
            rt.checkpoint(path, app_state=self._app_state())
        return path

    @classmethod
    def load(cls, path: str, **runtime_kwargs: Any) -> Tuple["Spreadsheet", Any]:
        """Rebuild a sheet from a :meth:`save` checkpoint (plus WAL tail).

        Returns ``(sheet, report)`` where ``report`` is the
        :class:`~repro.persist.recover.RecoveryReport`.  The sheet is
        reconstructed under a freshly recovered runtime (kept at
        ``sheet.runtime``; activate it with ``sheet.runtime.active()``
        before reading values): the grid is rebuilt, checkpointed cell
        state is adopted in place, and formula sources — checkpointed
        ones first, then WAL-tail edits in commit order — are replayed.
        :attr:`edits` is the checkpointed history extended by those
        same WAL-tail edits, so it always describes the recovered sheet.
        Corrupt state degrades to an exhaustive rebuild of the same
        formulas; only a checkpoint too damaged to surface the sheet's
        dimensions raises :class:`SpreadsheetLoadError`.

        Extra keyword arguments configure the recovered runtime
        (forwarded to the :class:`~repro.core.runtime.Runtime`
        constructor) — the serve layer restores each tenant session
        with its own watchdog and resilience policy this way, and the
        parallel persistence tests reload under
        ``parallel_drains=N``.  Loading the same checkpoint several
        times builds fully independent sheets: each call recovers into
        its own runtime and id space, so two sessions restored from
        one directory layout never share state.
        """
        from ..persist.recover import recover as _recover

        rt, report = _recover(path, restore_values=True, **runtime_kwargs)
        state = report.app_state
        if not isinstance(state, dict) or "rows" not in state:
            raise SpreadsheetLoadError(path, report.reason)
        with rt.active():
            sheet = cls(int(state["rows"]), int(state["cols"]))
            # Deliberately NOT batched: plain writes take the write-path
            # restored-bind, where a formula whose tree fingerprint still
            # matches the checkpoint adopts silently and keeps the cell's
            # cached value chain warm (a batch would compare against the
            # pre-replay empty grid at commit and invalidate everything).
            for row, col, source, gen in state.get("formulas", ()):
                sheet.set_formula(row, col, source, _gen=gen)
            sheet.edits = list(state.get("edits", ()))
            for record in report.app_records:
                if (
                    isinstance(record, dict)
                    and record.get("op") == "set_formula"
                ):
                    row, col = record["row"], record["col"]
                    source = record["source"]
                    sheet.set_formula(row, col, source, _gen=record.get("gen"))
                    sheet.edits.append([row, col, source])
        sheet.runtime = rt
        return sheet, report

    def teardown(self) -> None:
        """Break the sheet's reference cycles so that reference counting
        frees it: empty every field of every formula tree (parent
        pointers, and the cells a reference reaches back through the
        sheet) and drop the grid.  For a sheet nothing will read again,
        after its runtime's :meth:`~repro.core.runtime.Runtime.teardown`
        (a served tenant's close); the formula sources and
        :attr:`edits` stay."""
        pending: List[Any] = [
            cell.field_cell("func") for row in self._grid for cell in row
        ]
        while pending:
            location = pending.pop()
            value, location._value = location._value, None
            if isinstance(value, TrackedObject):
                pending.extend(value._cells.values())
        self._grid = []

    def ref(self, row: int, col: int) -> CellExp:
        """Build a CellExp referencing (row, col), for programmatic
        formula construction."""
        return CellExp(self, x=row, y=col)

    def range_sum(self, r1: int, c1: int, r2: int, c2: int) -> RangeSumExp:
        """Build a SUM-over-rectangle expression (corners inclusive)."""
        for row, col in ((r1, c1), (r2, c2)):
            self.cell_at(row, col)  # bounds check now, not at eval time
        return RangeSumExp(self, r1=r1, c1=c1, r2=r2, c2=c2)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Spreadsheet({self.rows}x{self.cols})"


# ----------------------------------------------------------------------
# Formula productions: tree builds, leaf diffs, rendering, and stable
# tree identities.
# ----------------------------------------------------------------------


#: Each formula production by its shape tag (see
#: :data:`repro.spreadsheet.formula.Shape`): its class, its terminal
#: fields and its child fields in the order the shape lists them, and
#: its formula text.  Tree builds, leaf diffs and rendering all read
#: this one table.
_PRODUCTIONS: Dict[str, Tuple[type, Tuple[str, ...], Tuple[str, ...], str]] = {
    "int": (IntExp, ("int",), (), "{int}"),
    "id": (IdExp, ("id",), (), "{id}"),
    "cell": (CellExp, ("x", "y"), (), "R{x}C{y}"),
    "sum": (RangeSumExp, ("r1", "c1", "r2", "c2"), (), "SUM(R{r1}C{c1}:R{r2}C{c2})"),
    "plus": (PlusExp, (), ("exp1", "exp2"), "({exp1} + {exp2})"),
    "let": (LetExp, ("id",), ("exp1", "exp2"), "let {id} = {exp1} in {exp2} ni"),
}


def build_tree(shape: "_formula.Shape", sheet: Optional[Spreadsheet] = None) -> Exp:
    """Build the (unrooted) tracked expression tree of a formula shape.

    ``sheet`` is what cell references and SUM ranges read; a SUM's
    corners are bounds-checked here (``IndexError``).
    """
    production, terminals, children, _ = _PRODUCTIONS[shape[0]]
    values = shape[1:]
    if children:
        kids = [build_tree(child, sheet) for child in values[len(terminals):]]
        node = production(
            **dict(zip(terminals + children, values[: len(terminals)] + tuple(kids)))
        )
        for kid in kids:
            kid.parent = node
        return node
    if production is CellExp or production is RangeSumExp:
        if sheet is None:
            what = "cell reference" if production is CellExp else "SUM range"
            raise _formula.FormulaError(f"{what} used without a sheet")
        if production is RangeSumExp:
            _check_corners(sheet, shape)
        return production(sheet, **dict(zip(terminals, values)))
    return production(**dict(zip(terminals, values)))


def _check_corners(sheet: Spreadsheet, shape: "_formula.Shape") -> None:
    """Raise ``IndexError`` unless both corners of a SUM shape are on
    the sheet."""
    sheet.cell_at(shape[1], shape[2])
    sheet.cell_at(shape[3], shape[4])


def _changed_leaves(
    node: Any,
    shape: "_formula.Shape",
    path: str,
    sheet: Spreadsheet,
    writes: List[Tuple[Any, Any]],
) -> bool:
    """Whether ``node`` has the productions of ``shape`` and every node
    still carries its own path as ``_persist_key`` (a node reached twice,
    or installed in another cell since, does not); if so, ``writes``
    gains a ``(location, value)`` pair for each terminal whose value
    differs.  Raises ``IndexError`` for a SUM corner outside the sheet,
    as building the tree would.  Reads nothing through the runtime.
    """
    production, terminals, children, _ = _PRODUCTIONS[shape[0]]
    if type(node) is not production or getattr(node, "_persist_key", None) != path:
        return False
    if production is RangeSumExp:
        _check_corners(sheet, shape)
    for name, value in zip(terminals, shape[1:]):
        location = node.field_cell(name)
        old = location.peek()
        if type(old) is not type(value) or old != value:
            writes.append((location, value))
    for name, child in zip(children, shape[1 + len(terminals):]):
        if not _changed_leaves(
            node.field_cell(name).peek(), child, f"{path}.{name}", sheet, writes
        ):
            return False
    return True


class _Unrenderable(Exception):
    """An Exp production with no formula-grammar rendering."""


def _render_formula(node: Exp) -> str:
    """Render an expression tree back to parseable formula text.

    Inverse of :func:`repro.spreadsheet.formula.parse_formula` up to
    parenthesisation; raises :class:`_Unrenderable` for productions the
    grammar cannot express (user-defined Exp subclasses).
    """
    if isinstance(node, RootExp):
        return _render_formula(node.field_cell("exp").peek())
    for production, terminals, children, text in _PRODUCTIONS.values():
        if isinstance(node, production):
            fields = {name: node.field_cell(name).peek() for name in terminals}
            for name in children:
                fields[name] = _render_formula(node.field_cell(name).peek())
            return text.format(**fields)
    raise _Unrenderable(type(node).__name__)


def _assign_tree_ids(node: Exp, path: str, _seen: Optional[set] = None) -> None:
    """Give every node of a formula tree a path-based stable identity.

    The object itself gets ``_persist_key`` (naming its maintained
    instances) and each tracked field cell gets ``_sid`` (naming its
    storage location), both rooted at the owning cell's coordinates —
    e.g. ``sheet:R1C2.func.exp.exp1.int``.  Deterministic by structure,
    so a reloaded process that replays the same formula source mints
    identical ids and adopts the checkpointed nodes.
    """
    if _seen is None:
        _seen = set()
    if id(node) in _seen:
        return
    _seen.add(id(node))
    node._persist_key = path
    for name in type(node).all_fields():
        cell = node.field_cell(name)
        cell._sid = f"{path}.{name}"
        if name == "parent":
            continue  # upward pointer: the child walk already covers it
        child = cell.peek()
        if isinstance(child, Exp):
            _assign_tree_ids(child, f"{path}.{name}", _seen)
