"""The four served-spreadsheet workloads and their seeded inputs.

A workload is a traffic mix against an in-process
:class:`repro.serve.Server`.  Everything it sends is generated here from
``--seed`` before the server is built: the initial sheets of every
tenant, the set-up requests, and the request streams of the
closed-loop and open-loop phases.  The server receives only the encoded
request lines.

Sheets are *layered*: row 0 holds constants and every other cell is
``R{r-1}C{c} + R{r-1}C{c+1} + k``, two cells of the row above plus a
constant.  References only point upwards, so no edit can create a
cycle, and the dependency depth is the row count.

Each generated cell also carries a structured form, which
:class:`SheetModel` evaluates from scratch.  That model is the
exhaustive oracle the served reads are checked against.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Plan",
    "Request",
    "SheetModel",
    "WORKLOADS",
    "Workload",
    "build_plan",
    "smoke",
]

#: A structured formula: ``(refs, const)``.  A constant cell has no refs.
Formula = Tuple[Tuple[Tuple[int, int], ...], int]


@dataclass(frozen=True)
class Workload:
    """One traffic mix and its per-repetition request counts."""

    name: str
    why: str
    #: ``"recalc"``, ``"edit"`` or ``"churn"``: which generator runs.
    mix: str
    tenants: int
    rows: int
    cols: int
    #: Closed-loop requests per repetition (8 outstanding).
    closed: int
    #: Open-loop requests per repetition, sent at ``rate`` per second of
    #: the reference clock (see :mod:`.calibrate`).
    open: int
    rate: float
    #: Set-up and closed-loop requests between two calibration samples,
    #: about 40 ms of work (see :mod:`.calibrate`).
    batch: int = 16
    max_live_sessions: int = 64
    #: Ship every committed record to an in-process standby (semi-sync).
    replicated: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="recalc",
            why=(
                "fresh reads after constant edits: invalidated-cone "
                "recomputation and cache hits, few WAL records"
            ),
            mix="recalc",
            tenants=4,
            rows=12,
            cols=24,
            closed=800,
            open=100,
            rate=60.0,
        ),
        Workload(
            name="edit",
            why=(
                "single and batched writes, no reads: parse, formula "
                "build, WAL app record, edit-log line and JSON"
            ),
            mix="edit",
            tenants=8,
            rows=8,
            cols=8,
            closed=3000,
            open=300,
            rate=350.0,
            batch=64,
        ),
        Workload(
            name="replicated-edit",
            why=(
                "edit traffic shipped semi-sync to an in-process standby: "
                "ship-ack cost and records per edit"
            ),
            mix="edit",
            tenants=8,
            rows=8,
            cols=8,
            closed=2700,
            open=270,
            rate=300.0,
            batch=64,
            replicated=True,
        ),
        Workload(
            name="tenant-churn",
            why=(
                "Zipf tenants over a live-session limit: eviction "
                "checkpoints and resurrection recovery dominate"
            ),
            mix="churn",
            tenants=32,
            # 4 rows, not 8: with 8x8 sheets each resurrection's objects
            # brought a full collection every ~40 requests, capacity was
            # 35-70 req/s and the 25 req/s open loop ran at up to 70% of it.
            rows=4,
            cols=8,
            closed=500,
            open=60,
            rate=40.0,
            batch=8,
            max_live_sessions=16,
        ),
    )
}


def smoke(workload: Workload) -> Workload:
    """The same traffic at tiny counts (self-tests)."""
    return replace(
        workload,
        closed=min(workload.closed, 60),
        open=min(workload.open, 40),
        rate=max(workload.rate, 200.0),
    )


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------


@dataclass
class Request:
    """One generated request: its wire line plus what the oracle needs."""

    sid: str
    op: str
    line: bytes
    #: Writes: ``((row, col, formula), ...)``; reads: ``((row, col),)``.
    cells: tuple

    @property
    def edits(self) -> int:
        return len(self.cells) if self.op in ("write", "batch") else 0


def _text(formula: Formula) -> str:
    refs, const = formula
    return " + ".join([f"R{r}C{c}" for r, c in refs] + [str(const)])


def _encode(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def _write(sid: str, cells: List[Tuple[int, int, Formula]], op: str) -> Request:
    wire = [[r, c, _text(f)] for r, c, f in cells]
    return Request(
        sid, op, _encode({"op": op, "session": sid, "cells": wire}), tuple(cells)
    )


def _read(sid: str, row: int, col: int) -> Request:
    line = _encode({"op": "read", "session": sid, "row": row, "col": col})
    return Request(sid, "read", line, ((row, col),))


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------


@dataclass
class Plan:
    """Everything one run sends, generated once from the seed.  Every
    repetition replays the same plan against a fresh server."""

    workload: Workload
    sids: List[str]
    #: Set-up: one seeding batch per tenant, then a read of every cell.
    setup: List[Request]
    closed: List[Request]
    open: List[Request]


def _layered(rng: random.Random, row: int, col: int, cols: int) -> Formula:
    """Row 0: a constant; below: the cell above, its right neighbour
    (wrapping) and a constant, so an edit's cone widens by one column
    per row."""
    if row == 0:
        return ((), rng.randrange(100))
    return (((row - 1, col), (row - 1, (col + 1) % cols)), rng.randrange(10))


def _deal(rng: random.Random, items: Sequence[Any], n: int) -> List[Any]:
    """``n`` picks from ``items``, each as often as the others (give or
    take one), in seeded order."""
    pool = list(items)
    rng.shuffle(pool)
    picks = [pool[i % len(pool)] for i in range(n)]
    rng.shuffle(picks)
    return picks


def _zipf(rng: random.Random, items: Sequence[Any], s: float, n: int) -> List[Any]:
    """``n`` picks from ``items`` in exact Zipf(s) proportion by rank (the
    first item is the most popular), in seeded order."""
    weights = [1.0 / rank ** s for rank in range(1, len(items) + 1)]
    shares = [n * w / sum(weights) for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(items)), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    picks = [item for item, count in zip(items, counts) for _ in range(count)]
    rng.shuffle(picks)
    return picks


def _stream(w: Workload, shape: random.Random, rng: random.Random,
            sids: List[str], turn: Dict[str, int], n: int) -> List[Request]:
    """``n`` requests of the workload's mix.

    ``shape`` draws what is asked of the engine: the order of tenants,
    the kinds of request, batch sizes, and the rows and columns touched.
    It is seeded by the workload's name alone.  ``rng`` draws every
    constant, and ``turn`` shifts the columns of each tenant's requests;
    both come from ``--seed``.  Sheets wrap around their columns, so a
    shift moves work to other cells without changing it, and every seed
    asks the engine for the same work: cone recomputations and cold
    tenants do not vary in number or size from seed to seed, and the
    metrics move only with the program and the machine.
    """
    def cell(sid: str, row: int, col: int) -> Tuple[int, int]:
        return row, (col + turn[sid]) % w.cols

    if w.mix == "churn":
        tenants = _zipf(shape, sids, 1.1, n)
    else:
        tenants = _deal(shape, sids, n)
    if w.mix == "edit":
        # 75% single-cell writes, 25% batches of 2-4 cells.
        singles = round(0.75 * n)
        sizes = [1] * singles + _deal(shape, [2, 3, 4], n - singles)
        shape.shuffle(sizes)
        cells = iter(_deal(shape, [(r, c) for r in range(w.rows) for c in range(w.cols)],
                           sum(sizes)))
        out = []
        for sid, size in zip(tenants, sizes):
            targets = [cell(sid, *next(cells)) for _ in range(size)]
            edits = [(r, c, _layered(rng, r, c, w.cols)) for r, c in targets]
            out.append(_write(sid, edits, "write" if size == 1 else "batch"))
        return out
    if w.mix == "recalc":
        # 15% row-0 constant writes, 85% reads of bottom-half cells, whose
        # cones reach back to row 0 through half the sheet or more.
        writes = round(0.15 * n)
        targets = [(r, c) for r in range(w.rows // 2, w.rows) for c in range(w.cols)]
    else:
        # churn: 50% row-0 constant writes, 50% reads of the last row, so
        # a resurrected tenant recomputes derived cells.
        writes = round(0.5 * n)
        targets = [(w.rows - 1, c) for c in range(w.cols)]
    kinds = [True] * writes + [False] * (n - writes)
    shape.shuffle(kinds)
    cols = iter(_deal(shape, range(w.cols), writes))
    reads = iter(_deal(shape, targets, n - writes))
    out = []
    for sid, is_write in zip(tenants, kinds):
        if is_write:
            _, col = cell(sid, 0, next(cols))
            out.append(_write(sid, [(0, col, _layered(rng, 0, col, w.cols))], "write"))
        else:
            out.append(_read(sid, *cell(sid, *next(reads))))
    return out


def build_plan(workload: Workload, seed: int) -> Plan:
    """Generate every input of one run from ``seed`` (deterministic)."""
    shape = random.Random(f"{workload.name}:shape")
    rng = random.Random(f"{workload.name}:{seed}")
    sids = [f"t{i:02d}" for i in range(workload.tenants)]
    turn = {sid: rng.randrange(workload.cols) for sid in sids}
    setup: List[Request] = []
    # Least popular first (Zipf ranks follow ``sids``): under a live-session
    # limit, set-up then leaves the most popular tenants live, as a long
    # run would, and the closed loop does not start with a burst of misses.
    for sid in reversed(sids):
        sheet = [
            (r, c, _layered(rng, r, c, workload.cols))
            for r in range(workload.rows)
            for c in range(workload.cols)
        ]
        setup.append(_write(sid, sheet, "batch"))
        setup.extend(_read(sid, r, c) for r, c, _ in sheet)
    closed = _stream(workload, shape, rng, sids, turn, workload.closed)
    open_ = _stream(workload, shape, rng, sids, turn, workload.open)
    return Plan(workload, sids, setup, closed, open_)


# ----------------------------------------------------------------------
# the exhaustive oracle
# ----------------------------------------------------------------------


class SheetModel:
    """A tenant's sheet evaluated from scratch, without the engine.

    Values are recomputed after every write, so each read checks the
    incremental result against an exhaustive one.
    """

    def __init__(self, rows: int, cols: int) -> None:
        self.rows = rows
        self.cols = cols
        self.formulas: Dict[Tuple[int, int], Formula] = {}
        self._values: Optional[Dict[Tuple[int, int], int]] = None

    def set(self, row: int, col: int, formula: Formula) -> None:
        self.formulas[(row, col)] = formula
        self._values = None

    def value(self, row: int, col: int) -> int:
        if self._values is None:
            self._values = {}
        values = self._values
        key = (row, col)
        if key not in values:
            refs, const = self.formulas.get(key, ((), 0))
            values[key] = const + sum(self.value(r, c) for r, c in refs)
        return values[key]

    def grid(self) -> List[List[int]]:
        return [
            [self.value(r, c) for c in range(self.cols)]
            for r in range(self.rows)
        ]
