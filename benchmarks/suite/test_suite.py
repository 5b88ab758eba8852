"""Self-tests of the benchmark suite: ``python -m pytest benchmarks/suite``.

The smoke runs go through the same command the benchmark is run with
and read the result object from the last line of standard output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from .calibrate import CAP, REFERENCE_S, ReferenceClock
from .metrics import SUITE_ONLY, compare, declared
from .tracing import Analysis
from .verify import compare_grids
from .workloads import WORKLOADS, build_plan

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
MANIFEST = declared()

#: Per-layer metrics that exist only where their events happen.
ONLY_ON = {
    "replicated-edit": [
        "replicate.ship_ms.p50", "replicate.ship_ms.p99", "replicate.records_per_edit",
        "replicate.bytes_per_edit", "replicate.standby_apply_us", "replicate.resyncs",
        "replicate.self_ms_per_req",
    ],
    "tenant-churn": [
        "serve.open_ms", "serve.close_ms", "persist.checkpoint_ms",
        "persist.checkpoint_bytes", "persist.recover_ms",
    ],
    "recalc": ["spreadsheet.value_us", "core.execute_self_us", "core.cache_hit_ratio"],
}


def _smoke(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "suite", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_emits_every_end_to_end_metric(workload):
    result = _smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for metric in MANIFEST["end_to_end"]:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert emitted["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in MANIFEST["end_to_end"]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_smoke_emits_every_per_layer_metric(workload, tmp_path):
    out = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", "one", "--workload", workload,
         "--seed", "3", "--trace", "--smoke", "--out", str(out)],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line["metrics"]) == {m["name"] for m in MANIFEST["per_layer"]}
    layers = json.loads(out.read_text())["layers"]
    for name in ONLY_ON.get(workload, []):
        assert name in layers, name
    assert layers["trace.reconciled_share"]["value"] == 1.0
    assert os.path.exists(os.path.join(REPO, "benchmarks", "suite", "out",
                                       f"trace-{workload}.json"))


def test_one_seed_gives_one_request_stream():
    for workload in WORKLOADS.values():
        a, b = build_plan(workload, 7), build_plan(workload, 7)
        lines = lambda plan: [r.line for r in plan.setup + plan.closed + plan.open]  # noqa: E731
        assert lines(a) == lines(b)
        assert lines(a) != lines(build_plan(workload, 8))


def test_comparator_finds_a_tampered_cell():
    grid = [[1, 2, 3], [4, 5, 6]]
    tampered = [row[:] for row in grid]
    tampered[1][2] = 7
    assert compare_grids(grid, [row[:] for row in grid], "t") == []
    problems = compare_grids(grid, tampered, "t")
    assert problems == ["t R1C2: expected 6, got 7"]
    assert compare_grids(grid, grid[:1], "t") == ["t: grid shape differs"]


def test_compare_applies_each_bound():
    def result(correct=True, failed=0, **values):
        return {"workloads": {"recalc": {
            "correct": correct, "failed": failed,
            "metrics": {k: {"value": v, "unit": "x"} for k, v in values.items()}}}}

    def verdicts(a, b):
        return {row["metric"]: row["pass"] for row in compare(a, b, MANIFEST)}

    assert verdicts(result(p50_ms=10.0, sat_rps=100.0, error_rate=0.0),
                    result(p50_ms=10.5, sat_rps=80.0, error_rate=0.001)) == {
        "correct": True, "p50_ms": True, "sat_rps": False, "error_rate": False}
    # A metric or a workload that B lost fails, and so does a failed gate.
    assert verdicts(result(p50_ms=10.0, p99_ms=50.0), result(p50_ms=10.0)) == {
        "correct": True, "p50_ms": True, "p99_ms": False}
    assert verdicts(result(p50_ms=10.0), {"workloads": {}}) == {
        "correct": False, "p50_ms": False}
    assert verdicts(result(p50_ms=10.0), result(correct=False, p50_ms=10.0)) == {
        "correct": False, "p50_ms": True}
    assert verdicts(result(p50_ms=10.0), result(failed=3, p50_ms=10.0)) == {
        "correct": False, "p50_ms": True}


def test_self_times_add_up_to_the_root():
    spans = [
        (1, 0, "serve.handle", 0.0, 10.0, 1, "t"),
        (2, 1, "serve.queue_wait", 1.0, 3.0, 2, "t"),
        (3, 1, "serve.apply", 3.0, 9.0, 2, "t"),
        (4, 3, "spreadsheet.value", 4.0, 8.0, 2, "t"),
        (5, 1, "serve.close", 9.5, 12.0, 2, "t"),  # outlives its parent
    ]
    analysis = Analysis(spans)
    assert analysis.self_time[1] == 10.0 - 8.0
    assert analysis.self_time[3] == 6.0 - 4.0
    assert [s[0] for s in analysis.requests()] == [1]
    assert analysis.reconciled_share() == 1.0
    assert analysis.by_layer() == {"serve": 2.0 + 2.0 + 2.0 + 2.5, "spreadsheet": 4.0}


def test_reference_clock_reads_the_reference_speed():
    clock = ReferenceClock()
    # A machine at half the reference speed: every sample takes twice
    # REFERENCE_S, one every 20 ms; the fourth was interrupted.
    for i in range(6):
        start = i * 0.020
        took = 2 * REFERENCE_S * (10 if i == 3 else 1)
        clock.starts.append(start)
        clock.ends.append(start + took)
        clock.seconds.append(took)
    gap = (clock.ends[0], clock.starts[1])
    assert clock.span(*gap) == pytest.approx((gap[1] - gap[0]) / 2)
    # The interrupted sample counts as CAP times the others.
    gap = (clock.ends[3], clock.starts[4])
    assert clock.span(*gap) == pytest.approx((gap[1] - gap[0]) / 2 * 2 / (1 + CAP))
    # A sample itself lasts REFERENCE_S, or less when capped.
    assert clock.span(clock.starts[0], clock.ends[0]) == pytest.approx(REFERENCE_S)
    assert clock.at(0.05) > clock.at(0.031) > clock.at(0.0305) > clock.at(0.03)


def test_manifest_matches_the_suite():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    for entry in MANIFEST["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert MANIFEST["command"] == ["python3", "benchmarks/suite/run.py"]
    # compare gates every metric once, from one of the two lists.
    manifest = {m["name"] for m in MANIFEST["end_to_end"]}
    assert not manifest & {m["name"] for m in SUITE_ONLY}
