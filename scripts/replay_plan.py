"""Replay a served benchmark plan through ``Session.apply`` and count.

Builds the seeded plan of a ``benchmarks/suite`` workload with
``benchmarks.suite.workloads.build_plan``, opens one
:class:`repro.serve.session.Session` per tenant with the served default
:class:`~repro.serve.ServeConfig` (at the workload's sheet size; a
replicated workload ships to an in-process standby, as the benchmark
does), and applies the set-up requests and then the closed-phase
requests one at a time on this thread.  Over the closed phase it
prints, per request:

* each ``rt.stats`` counter's delta, summed over the tenants;
* events emitted and handler calls, by kind;
* and, in total, garbage collections by generation.

No clock, thread or eviction enters the replay, so its counts are
exact.  ``--write FILE`` records the counts of the gated workloads
(``recalc``, ``edit``, ``replicated-edit``) for a seed, and ``--check
FILE`` replays them again and exits 1 if any count differs, which is
what catches a change that adds one execution or one event per served
request.  GC collections are printed but not gated: they follow the
interpreter's allocation counts, which differ between Python versions.
``tenant-churn`` is not gated either: its served counts come from LRU
evictions under worker threads, which vary from run to run, and this
replay keeps every tenant open, so it would not measure them.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/replay_plan.py --workload recalc --seed 1
    PYTHONPATH=src python scripts/replay_plan.py --check benchmarks/served_counts.json
    PYTHONPATH=src python scripts/replay_plan.py --write benchmarks/served_counts.json

The script only reads ``benchmarks/suite/``.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import shutil
import sys
import tempfile
from typing import Any, Dict, List

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.suite.workloads import WORKLOADS, build_plan  # noqa: E402
from repro.core.events import EventBus  # noqa: E402
from repro.serve import ServeConfig  # noqa: E402
from repro.serve.protocol import ProtocolError  # noqa: E402
from repro.serve.session import Session, SessionOpError  # noqa: E402

#: The workloads whose counts the gate compares.
GATED = ("recalc", "edit", "replicated-edit")


class _Counting:
    """Counts emits and handler calls by kind while active."""

    def __init__(self) -> None:
        self.events: Dict[str, int] = collections.Counter()
        self.handler_calls: Dict[str, int] = collections.Counter()
        self.collections: Dict[str, int] = collections.Counter()
        self._emit = EventBus.emit

    def __enter__(self) -> "_Counting":
        emit = self._emit
        events, calls = self.events, self.handler_calls

        def counted(bus: EventBus, kind: Any, *args: Any, **kwargs: Any) -> None:
            events[kind.value] += 1
            calls[kind.value] += bus.subscriber_count(kind)
            emit(bus, kind, *args, **kwargs)

        EventBus.emit = counted
        gc.callbacks.append(self._collected)
        return self

    def __exit__(self, *exc: Any) -> None:
        EventBus.emit = self._emit
        gc.callbacks.remove(self._collected)

    def _collected(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self.collections[f"gen{info['generation']}"] += 1


def replay(name: str, seed: int) -> Dict[str, Any]:
    """Counts of the closed phase of ``name``'s plan for ``seed``."""
    workload = WORKLOADS[name]
    plan = build_plan(workload, seed)
    root = tempfile.mkdtemp(prefix="replay-")
    config = ServeConfig(root=root, rows=workload.rows, cols=workload.cols)
    shipper = applier = None
    if workload.replicated:
        from repro.replicate.shipper import InprocLink, Shipper
        from repro.replicate.standby import StandbyApplier

        applier = StandbyApplier(os.path.join(root, "standby"), warm_every=0)
        shipper = Shipper([InprocLink(applier.apply)], root=root)
    sessions = {sid: Session.open(sid, config, shipper=shipper) for sid in plan.sids}
    failed = 0

    def apply(requests: List[Any]) -> None:
        nonlocal failed
        for request in requests:
            try:
                sessions[request.sid].apply(json.loads(request.line))
            except (SessionOpError, ProtocolError):
                failed += 1

    try:
        apply(plan.setup)
        before = {sid: s.runtime.stats.snapshot() for sid, s in sessions.items()}
        gc.collect()
        with _Counting() as counting:
            apply(plan.closed)
        stats: Dict[str, int] = collections.Counter()
        for sid, session in sessions.items():
            for key, value in session.runtime.stats.snapshot().items():
                stats[key] += value - before[sid].get(key, 0)
    finally:
        for session in sessions.values():
            session.close()
        if shipper is not None:
            shipper.close()
        if applier is not None:
            applier.close()
        shutil.rmtree(root, ignore_errors=True)
    return {
        "requests": len(plan.closed),
        "failed": failed,
        "stats": dict(sorted(stats.items())),
        "events": dict(sorted(counting.events.items())),
        "handler_calls": dict(sorted(counting.handler_calls.items())),
        "gc_collections": dict(sorted(counting.collections.items())),
    }


def render(name: str, counts: Dict[str, Any]) -> str:
    """Per-request counts as aligned text."""
    n = counts["requests"]
    lines = [f"{name}: {n} closed-phase requests, {counts['failed']} failed"]
    for section in ("stats", "events", "handler_calls"):
        rows = counts[section]
        lines.append(f"  {section} per request (total {sum(rows.values()) / n:.3f}):")
        for key, value in rows.items():
            if value:
                lines.append(f"    {key:<28} {value / n:10.3f}")
    gcs = ", ".join(f"{k} {v}" for k, v in counts["gc_collections"].items())
    lines.append(f"  gc collections: {gcs or 'none'}")
    return "\n".join(lines)


def gated(counts: Dict[str, Any]) -> Dict[str, Any]:
    """The exact counts the gate compares."""
    return {k: v for k, v in counts.items() if k != "gc_collections"}


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", metavar="FILE", help="record the gated counts")
    mode.add_argument("--check", metavar="FILE", help="compare with recorded counts")
    args = parser.parse_args(argv)

    seed = args.seed
    expected: Dict[str, Any] = {}
    if args.check:
        with open(args.check, encoding="utf-8") as fh:
            recorded = json.load(fh)
        seed, expected = recorded["seed"], recorded["workloads"]
    names = args.workload or list(expected or GATED)
    results = {}
    for name in names:
        results[name] = replay(name, seed)
        print(render(name, results[name]), flush=True)
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(
                {"seed": seed, "workloads": {n: gated(c) for n, c in results.items()}},
                fh,
                indent=1,
            )
            fh.write("\n")
    if not args.check:
        return 0
    status = 0
    for name in (name for name in results if name in expected):
        want, got = _flat(expected[name]), _flat(gated(results[name]))
        for key in sorted(set(want) | set(got)):
            if want.get(key, 0) != got.get(key, 0):
                status = 1
                print(f"DIFFERS {name} {' '.join(key)}: recorded "
                      f"{want.get(key, 0)}, now {got.get(key, 0)}")
    print("served counts:", "differ" if status else "match")
    return status


def _flat(counts: Dict[str, Any]) -> Dict[Any, Any]:
    """``{(section, key): count}`` over a workload's counts."""
    flat: Dict[Any, Any] = {}
    for section, value in counts.items():
        if isinstance(value, dict):
            flat.update({(section, key): n for key, n in value.items()})
        else:
            flat[(section,)] = value
    return flat


if __name__ == "__main__":
    sys.exit(main())
