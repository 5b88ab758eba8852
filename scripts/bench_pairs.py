"""Alternating parent/change pairs of the served benchmark.

Runs ``benchmarks/suite/run.py --seconds 25 --trace 0`` in two source
trees, PARENT and CHANGE, once each per workload and seed (FIRST_SEED,
FIRST_SEED + 1, ...), alternating which tree runs first.  For each
workload and end-to-end metric it prints each side's median and
quartiles, the change's wins out of the pairs (a tie counts for
neither side), and whether the change's median stays inside the
metric's bound of the parent's.  Metric names, units, directions and
bounds come from CHANGE's ``BENCHMARK.json``, which it only reads.

Exit status is nonzero if any run exits nonzero, is not ``correct`` or
has failed requests.

Usage::

    python3 scripts/bench_pairs.py PARENT CHANGE --workload recalc \\
        --pairs 10 --seed 701 [--workload edit ...]

PARENT is a separate checkout of the parent commit (``git clone`` or
``git archive``); both trees run with the interpreter running this
script.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Tuple

SIDES = ("parent", "change")


def run_once(tree: str, workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """One benchmark run in ``tree``; its result line, plus the exit code."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    command = [
        sys.executable, os.path.join("benchmarks", "suite", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "failed": None, "metrics": {}}
    result["returncode"] = done.returncode
    return result


def clean(result: Dict[str, Any]) -> bool:
    return result["returncode"] == 0 and bool(result["correct"]) and result["failed"] == 0


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def inside(metric: Dict[str, Any], parent: float, change: float) -> bool:
    """The suite's bound rule: the change is worse by at most ``bound``
    times the parent's value."""
    worse = change - parent if metric["better"] == "lower" else parent - change
    return worse <= metric["bound"] * abs(parent)


def summarize(
    metrics: List[Dict[str, Any]], pairs: List[Dict[str, Dict[str, Any]]]
) -> List[Dict[str, Any]]:
    rows = []
    for metric in metrics:
        name = metric["name"]
        sides = {
            side: [p[side]["metrics"][name]["value"] for p in pairs
                   if name in p[side]["metrics"]]
            for side in SIDES
        }
        if not all(sides.values()):
            continue
        wins = 0
        for p in pairs:
            old = p["parent"]["metrics"][name]["value"]
            new = p["change"]["metrics"][name]["value"]
            wins += new < old if metric["better"] == "lower" else new > old
        stats = {side: quartiles(values) for side, values in sides.items()}
        rows.append({
            "metric": name,
            "unit": metric["unit"],
            "parent": stats["parent"],
            "change": stats["change"],
            "wins": wins,
            "pairs": len(pairs),
            "bound": metric["bound"],
            "inside": inside(metric, stats["parent"][1], stats["change"][1]),
        })
    return rows


def format_rows(workload: str, seeds: List[int], rows: List[Dict[str, Any]]) -> str:
    out = [f"{workload}: {len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]}"]
    header = (f"  {'metric':<12} {'unit':<6} {'parent median [IQR]':>28} "
              f"{'change median [IQR]':>28} {'wins':>6} {'bound':>6}  inside")
    out.append(header)
    for row in rows:
        cells = [
            f"{q2:.4g} [{q1:.4g}-{q3:.4g}]" for q1, q2, q3 in (row["parent"], row["change"])
        ]
        out.append(
            f"  {row['metric']:<12} {row['unit']:<6} {cells[0]:>28} {cells[1]:>28} "
            f"{row['wins']:>3}/{row['pairs']:<2} {row['bound']:>6.0%}  "
            f"{'yes' if row['inside'] else 'NO'}"
        )
    return "\n".join(out)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree of the parent commit")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="first seed")
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    seeds = [args.seed + i for i in range(args.pairs)]
    dirty = []
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                result = run_once(trees[side], workload, seed, args.seconds)
                pair[side] = result
                if not clean(result):
                    dirty.append(f"{workload} seed {seed} {side}")
                values = " ".join(
                    f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()
                )
                print(f"{workload} seed {seed} {side}: correct={result['correct']} "
                      f"failed={result['failed']} {values}", file=sys.stderr, flush=True)
            pairs.append(pair)
        rows = summarize(manifest["end_to_end"], pairs)
        print(format_rows(workload, seeds, rows), flush=True)
    for what in dirty:
        print(f"not clean: {what}", file=sys.stderr)
    return 1 if dirty else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
