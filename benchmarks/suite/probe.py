"""Layer probe: the cost of single engine and persistence operations.

Each probe times a batch of identical operations through public APIs
and reports the median per-operation time of 5 batches.  They cover the
primitives the served workloads are made of: tracked reads outside and
inside a procedure frame, modify with and without a change, cached-call
hits and misses, one drain step, ``EventBus.emit`` with 0, 1 and 4
subscribers, WAL appends with and without fsync, checkpoints per 1000
graph nodes, and an in-process semi-sync ship-ack.
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile
import time
from typing import Callable, Dict, List, Tuple

from .metrics import median

__all__ = ["probe"]

BATCHES = 5
_perf = time.perf_counter


def _per_op(run_batch: Callable[[], float], ops: int) -> float:
    """Median seconds per operation over :data:`BATCHES` batches;
    ``run_batch`` returns the timed seconds of ``ops`` operations."""
    run_batch()  # warm-up
    return median([run_batch() / ops for _ in range(BATCHES)])


def _core() -> Dict[str, float]:
    from repro.core import Cell, Runtime, cached
    from repro.core.events import EventBus, EventKind

    out: Dict[str, float] = {}
    n = 5000
    rt = Runtime()
    try:
        with rt.active():
            cell = Cell(0, "probe")

            def reads_outside() -> float:
                start = _perf()
                for _ in range(n):
                    cell.get()
                return _perf() - start

            out["core.read_ns"] = _per_op(reads_outside, n)

            timed: List[float] = []

            @cached
            def reads_inside(key: int) -> int:
                start = _perf()
                for _ in range(n):
                    cell.get()
                timed.append(_perf() - start)
                return key

            keys = itertools.count()

            def reads_in_frame() -> float:
                reads_inside(next(keys))  # a fresh instance executes its body
                return timed[-1]

            out["core.read_tracked_ns"] = _per_op(reads_in_frame, n)

            # n distinct cells, each read by a procedure, so every write
            # is a fresh change that marks its dependent.
            cells = [Cell(0, "probe") for _ in range(n)]

            @cached
            def depends(i: int) -> int:
                return cells[i].get()

            for i in range(n):
                depends(i)
            bump = itertools.count(1)

            def modify_change() -> float:
                value = next(bump)
                start = _perf()
                for c in cells:
                    c.set(value)
                elapsed = _perf() - start
                rt.flush()
                for i in range(n):
                    depends(i)
                return elapsed

            def modify_same() -> float:
                value = cells[0].peek()
                start = _perf()
                for c in cells:
                    c.set(value)
                return _perf() - start

            out["core.modify_ns"] = _per_op(modify_change, n)
            out["core.modify_nochange_ns"] = _per_op(modify_same, n)

            def call_hits() -> float:
                start = _perf()
                for _ in range(n):
                    depends(0)
                return _perf() - start

            out["core.call_hit_ns"] = _per_op(call_hits, n)

            misses = 1000

            def call_misses() -> float:
                elapsed = 0.0
                for _ in range(misses):
                    cells[0].set(next(bump))
                    start = _perf()
                    depends(0)
                    elapsed += _perf() - start
                return elapsed

            out["core.call_miss_ns"] = _per_op(call_misses, misses)

            # One write to a cell read by `fan` procedures: the drain takes
            # one step for the cell and one per dependent.
            fan = 2000
            base = Cell(0, "probe")

            @cached
            def leaf(i: int) -> int:
                return base.get() + i

            for i in range(fan):
                leaf(i)

            def drain_steps() -> float:
                base.set(next(bump))
                before = rt.stats.propagation_steps
                start = _perf()
                rt.flush()
                elapsed = _perf() - start
                steps = rt.stats.propagation_steps - before
                for i in range(fan):
                    leaf(i)
                return elapsed * (fan + 1) / steps

            out["core.drain_step_ns"] = _per_op(drain_steps, fan + 1)
    finally:
        rt.close()

    for subscribers in (0, 1, 4):
        bus = EventBus()
        for _ in range(subscribers):
            bus.subscribe(EventKind.ACCESS, lambda kind, node, amount, data: None)

        def emits(bus: EventBus = bus) -> float:
            start = _perf()
            for _ in range(n):
                bus.emit(EventKind.ACCESS, None)
            return _perf() - start

        out[f"core.emit{subscribers}_ns"] = _per_op(emits, n)
    return {k: v * 1e9 for k, v in out.items()}


_RECORD = {
    "t": "a",
    "d": {"op": "set_formula", "row": 3, "col": 4, "source": "R2C1 + R2C5 + 7", "gen": 3},
}


def _persist(scratch: str) -> Dict[str, float]:
    from repro.core import Runtime
    from repro.persist.wal import WriteAheadLog
    from repro.spreadsheet import Spreadsheet

    out: Dict[str, float] = {}
    wal = WriteAheadLog(os.path.join(scratch, "probe.wal"))
    try:
        def appends(n: int, fsync: bool) -> Callable[[], float]:
            def batch() -> float:
                wal.truncate()
                start = _perf()
                for _ in range(n):
                    wal.append(_RECORD)
                    if fsync:
                        wal.sync()
                return _perf() - start

            return batch

        out["persist.wal_append_us"] = _per_op(appends(2000, False), 2000) * 1e6
        out["persist.wal_append_fsync_us"] = _per_op(appends(100, True), 100) * 1e6
    finally:
        wal.close()

    rt = Runtime()
    try:
        with rt.active():
            rows = cols = 16
            sheet = Spreadsheet(rows, cols)
            for r in range(rows):
                for c in range(cols):
                    formula = str(r + c) if r == 0 else f"R{r - 1}C{c} + R{r - 1}C{(c + 1) % cols} + 1"
                    sheet.set_formula(r, c, formula)
            sheet.values()
            path = os.path.join(scratch, "probe-sheet")
            sheet.save(path)
            nodes = len(rt.graph.nodes)

            def checkpoint() -> float:
                start = _perf()
                sheet.save(path)
                return _perf() - start

            out["persist.checkpoint_ms_per_1k_nodes"] = (
                _per_op(checkpoint, 1) * 1e3 * 1000 / nodes
            )
    finally:
        rt.close()
    return out


def _replicate(scratch: str) -> Dict[str, float]:
    from repro.persist.wal import WriteAheadLog
    from repro.replicate.shipper import InprocLink, LinkDown, Shipper
    from repro.replicate.standby import StandbyApplier
    from repro.replicate.stream import make_record
    from repro.resil import RetryPolicy

    lines: List[str] = []
    wal = WriteAheadLog(os.path.join(scratch, "ship-source.wal"))
    wal.on_append = lambda line, record: lines.append(line.rstrip("\n"))
    wal.append(_RECORD)
    wal.close()

    applier = StandbyApplier(os.path.join(scratch, "standby"), warm_every=0)
    shipper = Shipper(
        [InprocLink(applier.apply)],
        retry=RetryPolicy(max_attempts=1, base_delay=0.0, retry_on=LinkDown),
    )
    lsn = itertools.count(1)
    n = 500
    try:
        def ships() -> float:
            start = _perf()
            for _ in range(n):
                shipper.ship("probe", [make_record(next(lsn), "wal", lines[0])])
            return _perf() - start

        return {"replicate.ship_ack_us": _per_op(ships, n) * 1e6}
    finally:
        shipper.close()
        applier.close()


def probe(scratch_root: str) -> Dict[str, Tuple[float, str]]:
    """Run every probe; returns ``name -> (value, unit)``."""
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="probe-", dir=scratch_root)
    try:
        values = {**_core(), **_persist(scratch), **_replicate(scratch)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = {"ns": "ns", "us": "us"}
    out: Dict[str, Tuple[float, str]] = {}
    for name, value in values.items():
        suffix = name.rsplit("_", 1)[-1]
        out[name] = (value, units.get(suffix, "ms"))
    return out
