"""E15 — durability costs: WAL overhead, checkpoint write, recovery
vs cold rebuild.

The persistence layer's bargain (docs/persistence.md): every committed
write pays one append to the write-ahead log, a checkpoint pays one
atomic snapshot, and in exchange a restarted process adopts the
dependency graph instead of re-executing it.  Measured series per
graph size:

* ``wal_ratio`` — wall-clock of a write+demand workload with the WAL
  attached over the same workload without it.  Budget: **<= 1.5x**
  (the no-fsync flush-per-append design point; this assert is the
  regression gate for it).
* ``ckpt_ms`` — one atomic checkpoint of the quiescent graph.
* ``rebuild_ms`` / ``recover_ms`` — demanding the full result from a
  cold program rebuild vs from ``recover()`` + adoption; recovery must
  answer with **zero** procedure re-executions.
"""

import time

from repro import Cell, Runtime, cached
from repro.persist.ids import fresh_id_space
from repro.persist.recover import recover

from .tableio import emit

SIZES = [50, 150, 400]
WRITES_PER_CELL = 2


def _build(n):
    """2n+1 nodes: n cells, n per-cell procedures, one aggregate."""
    cells = [Cell(i, label="bench") for i in range(n)]

    @cached
    def scaled(i):
        return cells[i].get() * 3

    @cached
    def total():
        return sum(scaled(i) for i in range(n))

    return cells, scaled, total


def _write_workload(n, path=None):
    """Evaluate, then write+flush+demand; returns (seconds, runtime)."""
    fresh_id_space()
    rt = Runtime()
    with rt.active():
        cells, scaled, total = _build(n)
        total()
        if path is not None:
            rt.persist_to(path)
        writes = n * WRITES_PER_CELL
        start = time.perf_counter()
        for j in range(writes):
            cells[j % n].set(1000 + j)
            rt.flush()
            total()
        elapsed = time.perf_counter() - start
    return elapsed, rt


def _best(fn, repeats=3):
    results = [fn() for _ in range(repeats)]
    return min(results, key=lambda pair: pair[0])


def test_e15_recovery_costs(tmp_path, benchmark):
    rows = []
    ratios = []
    for n in SIZES:
        base_s, _rt = _best(lambda n=n: _write_workload(n))
        wal_path = str(tmp_path / f"wal-{n}")
        wal_s, rt = _best(
            lambda n=n: _write_workload(n, str(tmp_path / f"wal-{n}"))
        )
        ratio = wal_s / max(base_s, 1e-9)
        ratios.append(ratio)

        manager = rt._persist
        start = time.perf_counter()
        with rt.active():
            manager.checkpoint()
        ckpt_s = time.perf_counter() - start

        # Cold rebuild: a fresh process re-executes every procedure.
        fresh_id_space()
        cold_rt = Runtime()
        start = time.perf_counter()
        with cold_rt.active():
            _cells, _scaled, total = _build(n)
            total()
        rebuild_s = time.perf_counter() - start
        assert cold_rt.stats.executions == n + 1

        # Recovery: checkpoint adoption answers without re-executing.
        fresh_id_space()
        start = time.perf_counter()
        rec_rt, report = recover(wal_path, restore_values=True)
        with rec_rt.active():
            _cells, _scaled, total = _build(n)
            total()
        recover_s = time.perf_counter() - start
        assert report.mode == "clean"
        assert rec_rt.stats.executions == 0

        rows.append(
            (
                n,
                n * WRITES_PER_CELL,
                round(base_s * 1e3, 3),
                round(wal_s * 1e3, 3),
                round(ratio, 3),
                round(ckpt_s * 1e3, 3),
                round(rebuild_s * 1e3, 3),
                round(recover_s * 1e3, 3),
                rec_rt.stats.executions,
            )
        )

    emit(
        "E15",
        "durability: WAL overhead, checkpoint write, recovery vs rebuild",
        [
            "n_cells",
            "writes",
            "base_ms",
            "wal_ms",
            "wal_ratio",
            "ckpt_ms",
            "rebuild_ms",
            "recover_ms",
            "recover_execs",
        ],
        rows,
    )

    # The design budget: logging committed writes must not cost more
    # than 1.5x the unlogged workload at any measured size.
    worst = max(ratios)
    assert worst <= 1.5, f"WAL overhead {worst:.2f}x exceeds the 1.5x budget"

    # Wall-clock sample for the pytest-benchmark harness: the logged
    # write workload at the middle size.
    benchmark(lambda: _write_workload(SIZES[1], str(tmp_path / "bench")))
