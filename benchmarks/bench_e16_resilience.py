"""E16 — an attached-but-idle resilience policy is (nearly) free.

`docs/robustness.md` layers failure policy (`repro.resil`) onto
`execute_node`: with no policy attached the hot path pays one
`None`-check; with a retry+breaker policy attached but never firing it
pays a breaker lookup and a try/except per body execution.  The claims
worth measuring:

* **Idle overhead** — the E14 workloads (tree change+requery, eager
  fan-in flush) run with no policy vs. an attached-but-idle
  retry+breaker policy must perform *identical* operations, and the
  wall-clock ratio target is <= 1.05 (asserted at 1.25 for machine
  noise, like E14).
* **Deadline frames cost more** — the same workload with a per-body
  deadline configured (never blown) is recorded as its own row: every
  execution then opens a monitored frame.  Reported, not gated.
* **Retry-to-heal** — a body that raises one `TransientFault` per
  healing write converges with exactly one retry per round and no
  poison ever surfacing; the per-heal latency is recorded.
"""

import threading
import time

from repro import (
    BreakerPolicy,
    Cell,
    EAGER,
    ResiliencePolicy,
    RetryPolicy,
    Runtime,
    TransientFault,
    cached,
)
from repro.trees import Tree, TreeNil, build_balanced, nil

from .tableio import emit, ops_counters

TREE_SIZE = 2**10 - 1
ROUNDS = 200
TRIALS = 5


def _idle_policy(deadline=None):
    return ResiliencePolicy(
        retry=RetryPolicy(max_attempts=3, sleep=lambda seconds: None),
        breaker=BreakerPolicy(failure_threshold=5, reset_timeout=30.0),
        deadline_seconds=deadline,
    )


def _in_thread(fn):
    """Run ``fn`` on a fresh thread and return its result.

    CPython 3.11's chunked frame stack has a perf cliff when a deep
    recursion (the tree workload nests ~10 ``call`` levels) straddles a
    chunk boundary; *where* the boundary falls depends on the caller's
    stack depth — pytest's is deep — which can skew a few-percent ratio
    by 40%.  A new thread gives both sides the same shallow stack.
    """
    box = []

    def runner():
        try:
            box.append((True, fn()))
        except BaseException as exc:  # re-raised on the caller's thread
            box.append((False, exc))

    worker = threading.Thread(target=runner)
    worker.start()
    worker.join()
    ok, payload = box[0]
    if not ok:
        raise payload
    return payload


def _leftmost_interior(root):
    node = root
    while True:
        left = node.field_cell("left").peek()
        if isinstance(left, TreeNil):
            return node
        node = left


def _tree_cycle(policy_factory):
    """E2's change-and-requery loop; returns (best seconds, op deltas)."""
    runtime = Runtime()
    policy = policy_factory() if policy_factory else None
    if policy is not None:
        runtime.use_resilience(policy)
    with runtime.active():
        leaf = nil()
        root = build_balanced(TREE_SIZE, leaf)
        root.height()
        node = _leftmost_interior(root)
        toggle = [Tree(key=-1, left=leaf, right=leaf), leaf]

        def cycle():
            for _ in range(ROUNDS):
                toggle.reverse()
                node.left = toggle[0]
                root.height()

        cycle()  # warm-up: both toggle positions cached
        best = None
        before = runtime.stats.snapshot()
        for _ in range(TRIALS):
            t0 = time.perf_counter()
            cycle()
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        delta = runtime.stats.delta(before)
    if policy is not None:
        policy.close()
    return best, delta


def _eager_cycle(policy_factory, n_cells=64):
    """One-cell change + flush through an eager fan-in, repeatedly."""
    runtime = Runtime()
    policy = policy_factory() if policy_factory else None
    if policy is not None:
        runtime.use_resilience(policy)
    with runtime.active():
        cells = [Cell(i, label=f"c{i}") for i in range(n_cells)]
        group = 4

        @cached(strategy=EAGER)
        def mid(g):
            return sum(c.get() for c in cells[g * group:(g + 1) * group])

        @cached(strategy=EAGER)
        def top():
            return sum(mid(g) for g in range(n_cells // group))

        top()

        def cycle():
            for i in range(ROUNDS):
                cells[i % n_cells].set(1000 + i)
                runtime.flush()

        cycle()  # warm-up
        best = None
        before = runtime.stats.snapshot()
        for _ in range(TRIALS):
            t0 = time.perf_counter()
            cycle()
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        delta = runtime.stats.delta(before)
    if policy is not None:
        policy.close()
    return best, delta


def _retry_heal_cycle():
    """Each write makes the first re-execution attempt fail transiently;
    retry absorbs it.  Returns (seconds per heal, retries, op delta)."""
    runtime = Runtime()
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=3, sleep=lambda seconds: None)
    )
    runtime.use_resilience(policy)
    with runtime.active():
        source = Cell(0, label="source")
        state = {"attempts": 0}

        @cached
        def flaky():
            state["attempts"] += 1
            value = source.get()
            if state["attempts"] % 2 == 1:
                raise TransientFault("first attempt fails")
            return value * 10

        assert flaky() == 0
        before = runtime.stats.snapshot()
        t0 = time.perf_counter()
        for i in range(ROUNDS):
            source.set(i + 1)
            assert flaky() == (i + 1) * 10  # healed by retry, no poison
        elapsed = time.perf_counter() - t0
        delta = runtime.stats.delta(before)
        runtime.check_invariants()
    policy.close()
    return elapsed / ROUNDS, delta["retries"], delta


def test_e16_idle_resilience_overhead(benchmark):
    rows = []
    ratios = []
    gated_delta = None
    workloads = [
        (f"tree/{TREE_SIZE}", _tree_cycle),
        ("eager/64", _eager_cycle),
    ]
    for _, run in workloads:
        run(None)  # process warm-up: the first cycle pays allocator costs
    for name, run in workloads:
        # Alternate the two sides and keep each side's best so a stray
        # slow pass (GC, frequency scaling) cannot skew the ratio.
        off_time = on_time = None
        for _ in range(3):
            t, off_delta = _in_thread(lambda: run(None))
            off_time = t if off_time is None else min(off_time, t)
            t, on_delta = _in_thread(lambda: run(_idle_policy))
            on_time = t if on_time is None else min(on_time, t)
        # identical work: an idle policy adds checks, never operations
        assert on_delta == off_delta, (name, on_delta, off_delta)
        if gated_delta is None:
            gated_delta = on_delta
        ratio = on_time / max(off_time, 1e-9)
        ratios.append(ratio)
        rows.append(
            (name, on_delta["executions"], on_delta["propagation_steps"],
             round(ratio, 3))
        )

    # Deadline frames are the expensive configuration: record, don't gate.
    framed_time, framed_delta = _in_thread(
        lambda: _eager_cycle(lambda: _idle_policy(deadline=60.0))
    )
    base_time, base_delta = _in_thread(lambda: _eager_cycle(None))
    assert framed_delta == base_delta
    rows.append(
        ("eager/64+deadline", framed_delta["executions"],
         framed_delta["propagation_steps"],
         round(framed_time / max(base_time, 1e-9), 3))
    )

    heal_s, retries, heal_delta = _retry_heal_cycle()
    assert retries == ROUNDS, retries
    assert heal_delta["nodes_poisoned"] == 0
    rows.append(
        ("retry-heal", heal_delta["executions"],
         f"{heal_s * 1e6:.0f}us/heal", "-")
    )

    ratios.sort()
    median = ratios[len(ratios) // 2]
    emit(
        "E16",
        "resilience-layer overhead while idle (on/off time ratio)",
        ["workload", "reexecutions", "prop_steps", "time_ratio"],
        rows,
        counters={
            "ops": ops_counters(gated_delta),
            "idle_overhead_median_ratio": round(median, 3),
            "retries_per_round": retries // ROUNDS,
        },
    )
    # target is <= 1.05; the assert leaves slack for machine noise
    assert median < 1.25, ratios

    # wall-clock: the idle-policy eager cycle
    runtime = Runtime()
    policy = _idle_policy()
    runtime.use_resilience(policy)
    with runtime.active():
        cells = [Cell(i, label=f"c{i}") for i in range(64)]

        @cached(strategy=EAGER)
        def total():
            return sum(c.get() for c in cells)

        total()
        counter = iter(range(10**9))

        def change_and_flush():
            cells[next(counter) % 64].set(next(counter))
            runtime.flush()
            return total()

        benchmark(change_and_flush)
    policy.close()
