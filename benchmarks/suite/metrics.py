"""Metric definitions, summary statistics and the ``compare`` table.

``BENCHMARK.json`` at the repository root declares the metrics a run
prints: every ``end_to_end`` metric with tracing off, every
``per_layer`` metric with tracing on, each with its unit and, for
end-to-end metrics, the bound by which it may worsen before a change
counts as a regression.  Four end-to-end metrics stay out of that
file because they cannot meet its rules: ``error_rate`` is 0 on a
healthy run, ``promote_s`` exists only on ``replicated-edit``, and
``p50_ms`` and ``p99_ms`` do not repeat from run to run within three
times less than the widest bound the file allows (see the README).
They live in :data:`SUITE_ONLY`, are reported in the full result and
gated by ``compare`` like the rest.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "MANIFEST",
    "SUITE_ONLY",
    "compare",
    "declared",
    "median",
    "percentile",
]

#: The benchmark manifest, two levels above this package.
MANIFEST = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCHMARK.json",
)

#: End-to-end metrics the full result carries beyond the manifest's.
#: ``bound`` is relative like the manifest's, except that ``error_rate``
#: may not increase at all.
SUITE_ONLY: List[Dict[str, Any]] = [
    {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "p99_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "error_rate", "unit": "fraction", "better": "lower", "bound": 0.0},
    {"name": "promote_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def declared(path: str = MANIFEST) -> Dict[str, Any]:
    """The parsed manifest."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100): with N samples, p99
    leaves ``N - ceil(0.99 N)`` samples above it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def _verdict(metric: Dict[str, Any], old: float, new: float) -> bool:
    """Does ``new`` stay within the metric's bound of ``old``?"""
    bound = metric["bound"]
    worse = new - old if metric["better"] == "lower" else old - new
    if bound == 0.0:
        return worse <= 0.0
    return worse <= bound * abs(old)


def _clean(result: Optional[Dict[str, Any]]) -> bool:
    """Did a workload's runs pass the correctness gate with no failed
    request?"""
    return result is not None and bool(result.get("correct")) and not result.get("failed")


def compare(
    a: Dict[str, Any], b: Dict[str, Any], manifest: Optional[Dict[str, Any]] = None
) -> List[Dict[str, Any]]:
    """Rows for every workload of ``a``: one ``correct`` row, which fails
    unless both sides passed the correctness gate with no failed
    request, then one row per end-to-end metric ``a`` has, with both
    values, the relative change and PASS/FAIL against the bound.  A
    workload or metric missing from ``b`` fails."""
    manifest = manifest if manifest is not None else declared()
    metrics = list(manifest["end_to_end"]) + SUITE_ONLY
    rows = []
    for workload, old_result in a["workloads"].items():
        new_result = b["workloads"].get(workload)
        rows.append(
            {
                "workload": workload,
                "metric": "correct",
                "a": _clean(old_result),
                "b": _clean(new_result),
                "change": None,
                "bound": None,
                "pass": _clean(old_result) and _clean(new_result),
            }
        )
        new_all = (new_result or {}).get("metrics", {})
        for metric in metrics:
            name = metric["name"]
            if name not in old_result["metrics"]:
                continue
            old = old_result["metrics"][name]["value"]
            new = new_all[name]["value"] if name in new_all else None
            if new is None:
                change = None
            elif old:
                change = (new - old) / abs(old)
            else:
                change = 0.0 if new == old else math.inf
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "a": old,
                    "b": new,
                    "change": change,
                    "bound": metric["bound"],
                    "pass": new is not None and _verdict(metric, old, new),
                }
            )
    return rows


def _cell(value: Any) -> str:
    if value is None:
        return "missing"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return f"{value:.5g}"


def format_rows(rows: List[Dict[str, Any]]) -> str:
    header = f"{'workload':<16} {'metric':<12} {'A':>12} {'B':>12} {'change':>8} {'bound':>6}  verdict"
    lines = [header, "-" * len(header)]
    for row in rows:
        change, bound = row["change"], row["bound"]
        if change is None:
            change = ""
        elif math.isinf(change):
            change = "inf"
        else:
            change = f"{change * 100:+.1f}%"
        if bound is None:
            bound = ""
        else:
            bound = "0" if bound == 0 else f"{bound * 100:.0f}%"
        lines.append(
            f"{row['workload']:<16} {row['metric']:<12} {_cell(row['a']):>12} "
            f"{_cell(row['b']):>12} {change:>8} {bound:>6}  "
            f"{'PASS' if row['pass'] else 'FAIL'}"
        )
    return "\n".join(lines)
