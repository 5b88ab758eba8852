"""E11 — §4.2: function caching integrated with propagation removes the
combinator restriction.

Paper claim: "we combine function caching with quiescence propagation
to allow functions that are not combinators (i.e., functions that
examine global state)."

Workload: K cached lookup instances over a mutable keyed store, then a
series of single-binding changes.  Comparators:
* Alphonse — each change invalidates only the instances that read the
  changed binding;
* traditional memo + full flush — the only *correct* classical policy
  for global-state readers throws the whole table away per change;
* traditional memo, no flush — cheap but returns WRONG (stale) answers.

Reproduced series: per store size, recomputations per change and
correctness, for all three.
"""

from repro import Runtime, TrackedDict, cached
from repro.baselines.memo import CombinatorMemo

from .tableio import emit

SIZES = [32, 128, 512]
CHANGES = 16


def _alphonse(k):
    runtime = Runtime()
    with runtime.active():
        store = TrackedDict(label="store")
        for i in range(k):
            store[i] = i * 10

        @cached
        def lookup(key):
            return store.get(key, -1)

        for i in range(k):
            assert lookup(i) == i * 10
        before = runtime.stats.snapshot()
        stale = 0
        for change in range(CHANGES):
            store[change] = -change
            for i in range(k):
                expected = -i if i <= change else i * 10
                if lookup(i) != expected:
                    stale += 1
        recomputations = runtime.stats.delta(before)["executions"]
    return recomputations / CHANGES, stale


def _memo(k, flush):
    state = {i: i * 10 for i in range(k)}
    memo = CombinatorMemo(lambda key: state.get(key, -1))
    for i in range(k):
        memo(i)
    memo.misses = 0
    stale = 0
    for change in range(CHANGES):
        state[change] = -change
        if flush:
            memo.invalidate_all()
        for i in range(k):
            expected = -i if i <= change else i * 10
            if memo(i) != expected:
                stale += 1
    return memo.misses / CHANGES, stale


def test_e11_noncombinator_caching(benchmark):
    rows = []
    for k in SIZES:
        alphonse_cost, alphonse_stale = _alphonse(k)
        flush_cost, flush_stale = _memo(k, flush=True)
        stale_cost, stale_count = _memo(k, flush=False)
        rows.append(
            (
                k,
                round(alphonse_cost, 1),
                alphonse_stale,
                round(flush_cost, 1),
                flush_stale,
                round(stale_cost, 1),
                stale_count,
            )
        )
        # Alphonse: correct, ~1 recomputation per change
        assert alphonse_stale == 0
        assert alphonse_cost <= 3
        # full-flush memo: correct but O(k) recomputation per change
        assert flush_stale == 0
        assert flush_cost >= k * 0.9
        # unflushed memo: cheap but WRONG
        assert stale_count > 0
    emit(
        "E11",
        "global-state readers under change: recompute/change + staleness",
        [
            "K",
            "alphonse_cost",
            "alphonse_stale",
            "flush_cost",
            "flush_stale",
            "nofix_cost",
            "nofix_stale",
        ],
        rows,
    )
    # the gap widens linearly with K
    assert rows[-1][3] / rows[-1][1] > rows[0][3] / rows[0][1]

    # wall-clock: the Alphonse change+probe cycle at the middle size
    runtime = Runtime()
    with runtime.active():
        store = TrackedDict(label="store")
        for i in range(SIZES[1]):
            store[i] = i

        @cached
        def lookup(key):
            return store.get(key, -1)

        for i in range(SIZES[1]):
            lookup(i)
        state = {"n": 0}

        def change_cycle():
            state["n"] = (state["n"] + 1) % SIZES[1]
            store[state["n"]] = state["n"] * 7
            return lookup(state["n"])

        benchmark(change_cycle)
