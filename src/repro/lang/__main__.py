"""Command-line driver: run, transform, or analyze Alphonse-L programs.

Usage::

    python -m repro.lang program.alf                 # incremental run
    python -m repro.lang program.alf --mode conventional
    python -m repro.lang program.alf --show-transformed
    python -m repro.lang program.alf --stats --sites --warnings
"""

from __future__ import annotations

import argparse
import sys

from ..core.errors import AlphonseError
from .dataflow import classify_sites
from .interp import run_source
from .parser import parse_module
from .sema import analyze
from .transform import transform
from .unparse import unparse


def build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lang",
        description="Run or transform an Alphonse-L program.",
    )
    parser.add_argument("file", help="Alphonse-L source file")
    parser.add_argument(
        "--mode",
        choices=["alphonse", "conventional"],
        default="alphonse",
        help="execution mode (default: alphonse)",
    )
    parser.add_argument(
        "--no-optimize",
        action="store_true",
        help="apply the Section 5 transformation uniformly (skip §6.1)",
    )
    parser.add_argument(
        "--show-transformed",
        action="store_true",
        help="print the transformed program instead of running it",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print runtime operation counters after the run",
    )
    parser.add_argument(
        "--sites",
        action="store_true",
        help="print the §6.1 site-classification summary",
    )
    parser.add_argument(
        "--warnings",
        action="store_true",
        help="print §3.5 restriction warnings (TOP/OBS)",
    )
    parser.add_argument(
        "--typecheck",
        action="store_true",
        help="run the static type checker; findings abort the run",
    )
    parser.add_argument(
        "--max-steps",
        type=int,
        default=None,
        help="abort after this many interpreter statements",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a JSONL runtime-event trace (alphonse mode only)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-procedure time/ops table after the run "
        "(alphonse mode only)",
    )
    parser.add_argument(
        "--explain",
        metavar="LABEL",
        default=None,
        help="after the run, print the causal chain for the node whose "
        "label matches LABEL (alphonse mode only)",
    )
    parser.add_argument(
        "--spans",
        metavar="FILE",
        default=None,
        help="write the span trace: .json for Chrome trace_event format, "
        "anything else for JSONL (alphonse mode only)",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="FILE",
        default=None,
        help="after the run, snapshot the dependency graph to FILE as "
        "JSON; a value that would not read back as it was is left out and "
        "recomputed on --resume (alphonse mode only)",
    )
    parser.add_argument(
        "--resume",
        metavar="FILE",
        default=None,
        help="recover the dependency graph from FILE before the run, so "
        "re-running the same program adopts its cached results "
        "(alphonse mode only)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        metavar="N",
        default=None,
        help="retry transient procedure-body failures up to N attempts "
        "before poisoning (runtime-wide RetryPolicy; alphonse mode only)",
    )
    return parser


def _print_profile(runtime, out) -> None:
    """Per-procedure time table plus the headline engine counters."""
    rows = runtime.obs.metrics.procedure_table()
    if rows:
        name_w = max(9, max(len(name) for name, *_ in rows))
        print(
            f"{'procedure':<{name_w}}  {'calls':>7}  {'total_ms':>10}  "
            f"{'mean_us':>10}",
            file=out,
        )
        for name, calls, total_s, mean_s in rows:
            print(
                f"{name:<{name_w}}  {calls:>7}  {total_s * 1e3:>10.3f}  "
                f"{mean_s * 1e6:>10.1f}",
                file=out,
            )
    else:
        print("(no procedure executions recorded)", file=out)
    metrics = runtime.obs.metrics
    stats = runtime.stats
    print(
        f"cache: {stats.cache_hits} hits / {stats.cache_misses} misses "
        f"(rate {metrics.cache_hit_rate:.2f})  "
        f"drains: {metrics.drain_steps.total}  "
        f"propagation steps: {stats.propagation_steps}  "
        f"changes: {stats.changes_detected}",
        file=out,
    )


def main(argv=None) -> int:
    args = build_argparser().parse_args(argv)
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.typecheck:
            from .typecheck import typecheck

            findings = typecheck(analyze(parse_module(source)))
            for finding in findings:
                print(f"type error: {finding}", file=sys.stderr)
            if findings:
                return 1
        if args.show_transformed or args.sites or args.warnings:
            info = analyze(parse_module(source))
            if args.warnings:
                for warning in info.warnings:
                    print(f"warning: {warning}", file=sys.stderr)
            if args.sites:
                print(classify_sites(info).summary(), file=sys.stderr)
            if args.show_transformed:
                result = transform(info, optimize=not args.no_optimize)
                print(unparse(result.module))
                return 0
        runtime = None
        trace_failed = False
        want_obs = args.profile or args.explain is not None or args.spans
        want_persist = args.checkpoint is not None or args.resume is not None
        want_resil = args.max_retries is not None
        need_runtime = (
            args.trace is not None or want_obs or want_persist or want_resil
        )
        if need_runtime:
            if args.mode != "alphonse":
                print(
                    "warning: --trace/--profile/--explain/--spans/"
                    "--checkpoint/--resume/--max-retries have no effect "
                    "in conventional mode",
                    file=sys.stderr,
                )
                need_runtime = want_obs = want_persist = want_resil = False
            else:
                from ..core import EventKind, Runtime

                if args.resume is not None:
                    runtime = Runtime.recover(args.resume)
                    report = runtime.last_recovery
                    detail = f" ({report.reason})" if report.reason else ""
                    print(
                        f"resume: {report.mode}{detail}, "
                        f"{report.restored_nodes} nodes restored, "
                        f"{report.replayed} writes replayed",
                        file=sys.stderr,
                    )
                else:
                    runtime = Runtime()
                if args.trace is not None:
                    # Every kind is this ring's own, so its flight view
                    # is the event trace; --spans reads it too.
                    from ..obs import WIDE_CAPACITY, FlightRecorder

                    ring = FlightRecorder(WIDE_CAPACITY, kinds=frozenset(EventKind))
                    runtime.obs.flight = ring.attach(runtime.events)
                if want_obs:
                    runtime.obs.enable()
                if want_resil:
                    if args.max_retries < 1:
                        print(
                            "error: --max-retries must be >= 1",
                            file=sys.stderr,
                        )
                        return 2
                    from ..resil import ResiliencePolicy, RetryPolicy

                    runtime.use_resilience(
                        ResiliencePolicy(
                            retry=RetryPolicy(max_attempts=args.max_retries)
                        )
                    )
        try:
            interp = run_source(
                source,
                mode=args.mode,
                runtime=runtime,
                optimize=not args.no_optimize,
                max_steps=args.max_steps,
            )
        finally:
            if runtime is not None and args.trace is not None:
                try:
                    text = runtime.obs.flight.to_jsonl()
                    with open(args.trace, "w", encoding="utf-8") as fh:
                        fh.write(text + "\n" if text else "")
                except OSError as exc:
                    trace_failed = True
                    print(f"error: cannot write trace: {exc}", file=sys.stderr)
                else:
                    print(
                        f"trace: {len(runtime.obs.flight)} events "
                        f"-> {args.trace}",
                        file=sys.stderr,
                    )
    except AlphonseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if runtime is not None and args.checkpoint is not None:
        try:
            runtime.checkpoint(args.checkpoint)
        except (OSError, AlphonseError) as exc:
            print(f"error: cannot write checkpoint: {exc}", file=sys.stderr)
            trace_failed = True
        else:
            print(f"checkpoint: -> {args.checkpoint}", file=sys.stderr)
    for line in interp.output:
        print(line)
    if args.stats:
        print(f"steps: {interp.steps}", file=sys.stderr)
        print(f"dynamic checks: {interp.dynamic_checks}", file=sys.stderr)
        if interp.runtime is not None:
            print(interp.runtime.stats.summary(), file=sys.stderr)
    if runtime is not None and want_obs:
        runtime.obs.disable()
        if args.profile:
            _print_profile(runtime, sys.stderr)
        if args.explain is not None:
            print(runtime.explain(args.explain).render(), file=sys.stderr)
        if args.spans:
            try:
                if args.spans.endswith(".json"):
                    count = runtime.obs.tracer.write_chrome(args.spans)
                else:
                    count = runtime.obs.tracer.write(args.spans)
            except OSError as exc:
                trace_failed = True
                print(f"error: cannot write spans: {exc}", file=sys.stderr)
            else:
                print(
                    f"spans: {count} -> {args.spans}", file=sys.stderr
                )
    return 1 if trace_failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
