"""Command line of the benchmark suite.

``python -m benchmarks.suite run --seed 1``
    every workload, each in its own process; prints each end-to-end
    metric with its unit and writes the full result as JSON.  Add
    ``--trace`` for the per-layer breakdown (and ``--probe``),
    ``--smoke`` for tiny counts, or ``--runs N`` for medians over N
    runs with consecutive seeds.
``python -m benchmarks.suite one --workload recalc --seed 1``
    one workload in this process.  The last line of standard output is
    ``{"correct", "attempted", "failed", "metrics"}``: the manifest's
    end-to-end metrics, or its per-layer metrics with ``--trace 1``.
    ``benchmarks/suite/run.py`` runs this command.
``python -m benchmarks.suite compare A.json B.json``
    one row per workload and end-to-end metric, PASS or FAIL against
    the bound in ``BENCHMARK.json``.

Every command exits nonzero when a run fails its correctness gate or a
comparison fails a bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

from . import metrics as suite_metrics
from .workloads import WORKLOADS, build_plan, smoke

__all__ = ["main"]

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): per-layer spans, probe and Chrome trace",
    )


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="how long a workload repeats (default: run_seconds of BENCHMARK.json)",
    )
    _trace_flag(parser)
    parser.add_argument("--probe", action="store_true",
                        help="time single engine and persistence operations")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny counts and one repetition")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads, one process each")
    _common(run)
    run.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                     help="repeatable; default: all four")
    run.add_argument("--runs", type=int, default=1,
                     help="run everything this many times, with seeds seed, seed+1, ...; "
                          "each metric is the median over the runs")
    run.add_argument("--out", help="result JSON (default: out/result-seed<N>.json)")
    one = sub.add_parser("one", help="run one workload in this process")
    _common(one)
    one.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    one.add_argument("--out", help="also write the full result JSON here")
    compare = sub.add_parser("compare", help="compare two result files")
    compare.add_argument("a")
    compare.add_argument("b")
    return parser


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------


def _metric_dict(values: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def run_one(
    name: str, *, seed: int, seconds: float, trace: bool, probe: bool, is_smoke: bool,
) -> Dict[str, Any]:
    """Run one workload here for about ``seconds``; returns its full
    result.  A smoke run makes one repetition of tiny counts (and one
    traced with ``trace``)."""
    from .calibrate import REFERENCE_S
    from .harness import MIN_REPS, OUT, end_to_end, interpreter, run_workload
    from .metrics import median, percentile
    from .verify import verify

    workload = WORKLOADS[name]
    if is_smoke:
        workload = smoke(workload)
    plan = build_plan(workload, seed)
    chrome = os.path.join(OUT, f"trace-{name}.json") if trace else None
    run = run_workload(
        workload, plan, seconds=0.0 if is_smoke else seconds,
        min_reps=1 if is_smoke else MIN_REPS, trace=trace, chrome_path=chrome,
    )
    problems = verify(plan, run.reps)
    attempted = sum(len(r.outcomes) for r in run.reps)
    failed = sum(r.failed for r in run.reps)
    untraced = run.untraced()
    lateness = [x for r in untraced for x in r.lateness]
    result: Dict[str, Any] = {
        "workload": name,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "metrics": _metric_dict(end_to_end(run)),
        "detail": {
            "seconds": seconds,
            "wall_s": run.wall_s,
            "repetitions": len(untraced),
            "traced_repetitions": len(run.reps) - len(untraced),
            "open_loop_samples": sum(len(r.latencies) for r in untraced),
            "generator_lateness_ms": {
                "p50": percentile(lateness, 50) * 1e3,
                "p99": percentile(lateness, 99) * 1e3,
            },
            "calibration_ms": {
                "reference": REFERENCE_S * 1e3,
                "median": median(run.clock.seconds) * 1e3,
                "min": min(run.clock.seconds) * 1e3,
                "max": max(run.clock.seconds) * 1e3,
                "samples": len(run.clock.seconds),
            },
            "per_rep": [
                {
                    "setup_s": r.setup_s,
                    "sat_rps": r.sat_rps,
                    "closed_s": r.closed_s,
                    "wall_s": r.wall,
                    "gc_gen2": r.gc_gen2,
                    "gc_pause_s": sum(r.gc_pauses),
                    "p50_ms": percentile(r.latencies, 50) * 1e3,
                    "p90_ms": percentile(r.latencies, 90) * 1e3,
                    "wall_p50_ms": percentile(r.wall_latencies, 50) * 1e3,
                    "promote_s": r.promote_s,
                }
                for r in untraced
            ],
        },
    }
    if trace or probe:
        from .probe import probe as run_probe

        layers: Dict[str, Any] = dict(run.layers or {})
        layers.update(interpreter(run))
        layers.update(run_probe(os.path.join(OUT, "state")))
        result["layers"] = _metric_dict(layers)
    return result


def _contract_line(result: Dict[str, Any], trace: bool, manifest: Dict[str, Any]) -> str:
    """The last line of a one-workload run: exactly the manifest's metrics."""
    wanted = manifest["per_layer" if trace else "end_to_end"]
    source = result.get("layers", {}) if trace else result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        raise SystemExit(f"metrics not measured: {', '.join(missing)}")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]}
            for m in wanted
        },
    }
    return json.dumps(line)


def _summary(result: Dict[str, Any]) -> str:
    lines = [f"{result['workload']}: correct={result['correct']} "
             f"attempted={result['attempted']} failed={result['failed']} "
             f"repetitions={result['detail']['repetitions']}"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<14} {m['value']:>12.5g} {m['unit']}")
    for name, m in sorted(result.get("layers", {}).items()):
        lines.append(f"  {name:<40} {m['value']:>12.5g} {m['unit']}")
    lines.extend(f"  problem: {p}" for p in result["problems"])
    return "\n".join(lines)


def _cmd_one(args: argparse.Namespace, manifest: Dict[str, Any]) -> int:
    result = run_one(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        probe=args.probe,
        is_smoke=args.smoke,
    )
    if args.out:
        _write_json(args.out, result)
    print(_summary(result), file=sys.stderr)
    print(_contract_line(result, bool(args.trace), manifest))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# all workloads
# ----------------------------------------------------------------------


def _child(name: str, seed: int, args: argparse.Namespace) -> Optional[Dict[str, Any]]:
    """Run one workload in a child process; its full result, or None
    when it failed before writing one."""
    from .harness import OUT

    fd, path = tempfile.mkstemp(prefix=f"{name}-", suffix=".json", dir=OUT)
    os.close(fd)
    command = [
        sys.executable, "-m", "benchmarks.suite", "one",
        "--workload", name, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", path,
    ]
    command += ["--probe"] * args.probe + ["--smoke"] * args.smoke
    try:
        completed = subprocess.run(command, cwd=_REPO, stdout=subprocess.DEVNULL)
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
    except ValueError:
        return None
    finally:
        os.remove(path)
    return result if completed.returncode == 0 else dict(result, correct=False)


def _median_of(results: List[Dict[str, Any]], key: str) -> Dict[str, Any]:
    """Each metric's median over the runs that have it."""
    names = {name for r in results for name in r.get(key, {})}
    merged = {}
    for name in sorted(names):
        values = [r[key][name] for r in results if name in r.get(key, {})]
        merged[name] = {
            "value": suite_metrics.median([v["value"] for v in values]),
            "unit": values[0]["unit"],
        }
    return merged


def _cmd_run(args: argparse.Namespace) -> int:
    from .harness import OUT

    names = args.workload or list(WORKLOADS)
    os.makedirs(OUT, exist_ok=True)
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    status = 0
    # Workloads take turns, so a slow spell of the machine spreads over
    # all of them instead of landing on one.
    for index in range(args.runs):
        for name in names:
            result = _child(name, args.seed + index, args)
            if result is None or not result["correct"] or result["failed"]:
                status = 1
            if result is not None:
                runs[name].append(result)
    combined: Dict[str, Any] = {
        "seeds": [args.seed + index for index in range(args.runs)],
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "python": platform.python_version(),
        "machine": f"{platform.machine()} x{os.cpu_count()}",
        "workloads": {},
    }
    for name, results in runs.items():
        # A workload whose every run crashed stays in the result, marked
        # incorrect, so that `compare` fails it.
        merged = {
            "correct": all(r["correct"] for r in results) and len(results) == args.runs,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": _median_of(results, "metrics"),
            "runs": results,
        }
        if any("layers" in r for r in results):
            merged["layers"] = _median_of(results, "layers")
        combined["workloads"][name] = merged
    out = args.out or os.path.join(OUT, f"result-seed{args.seed}.json")
    _write_json(out, combined)
    for name, result in combined["workloads"].items():
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<14} {m['value']:>12.5g} {m['unit']}")
    print(f"wrote {out}")
    return status


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def _cmd_compare(args: argparse.Namespace, manifest: Dict[str, Any]) -> int:
    results = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as fh:
            results.append(json.load(fh))
    rows = suite_metrics.compare(results[0], results[1], manifest)
    print(suite_metrics.format_rows(rows))
    return 0 if rows and all(row["pass"] for row in rows) else 1


def _write_json(path: str, data: Any) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    manifest = suite_metrics.declared()
    if getattr(args, "seconds", 0) is None:
        args.seconds = float(manifest["run_seconds"])
    if args.command == "one":
        return _cmd_one(args, manifest)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_compare(args, manifest)
