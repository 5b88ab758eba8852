"""Metrics registry: instruments, registry semantics, runtime wiring,
and the snapshot/JSON round-trip guarantees the bench harness relies on."""

import collections
import json
import sys
import threading

import pytest

from repro import (
    EAGER,
    Cell,
    Poisoned,
    ResiliencePolicy,
    RetryPolicy,
    Runtime,
    TransientFault,
    cached,
)
from repro.core.events import EventKind
from repro.obs import (
    SIZE_BUCKETS,
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RuntimeMetrics,
)


class TestInstruments:
    def test_counter(self):
        c = Counter("ops")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.snapshot() == {"type": "counter", "value": 5}

    def test_gauge(self):
        g = Gauge("depth")
        g.set(7)
        g.dec(2)
        g.inc()
        assert g.value == 6

    def test_histogram_bucketing(self):
        h = Histogram("sizes", buckets=(1, 10, 100))
        for v in (0, 1, 5, 10, 50, 1000):
            h.observe(v)
        # le=1 gets {0,1}; le=10 gets {5,10}; le=100 gets {50}; +Inf {1000}
        assert h.counts == [2, 2, 1, 1]
        assert h.total == 6
        assert h.sum == 1066
        assert h.mean == pytest.approx(1066 / 6)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(10, 1))
        with pytest.raises(ValueError):
            Histogram("empty", buckets=())

    def test_standard_bucket_edges_are_stable(self):
        """The fixed edges two CI runs diff cell-for-cell against."""
        assert SIZE_BUCKETS == (
            1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384,
        )
        assert TIME_BUCKETS == (
            1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
        )
        # and two independently constructed histograms share them
        a = Histogram("a").snapshot()["buckets"]
        b = Histogram("b").snapshot()["buckets"]
        assert a == b == list(SIZE_BUCKETS)


class TestRegistry:
    def test_idempotent_registration(self):
        reg = MetricsRegistry()
        first = reg.counter("x")
        second = reg.counter("x")
        assert first is second
        assert len(reg) == 1

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_snapshot_json_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h", buckets=(1, 2)).observe(1)
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["c"] == {"type": "counter", "value": 3}
        assert snap["h"]["counts"] == [1, 0, 0]

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("reqs", "requests served").inc(2)
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        text = reg.to_prometheus()
        assert "# TYPE reqs counter" in text
        assert "reqs 2" in text
        assert '# HELP reqs requests served' in text
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text  # cumulative
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text


class TestRuntimeMetrics:
    def test_cache_hit_rate(self, rt):
        metrics = RuntimeMetrics().attach(rt)
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get() + 1

        f()  # miss
        f()  # hit
        f()  # hit
        metrics.detach()
        assert metrics.cache_hits.value == 2
        assert metrics.cache_misses.value == 1
        assert metrics.cache_hit_rate == pytest.approx(2 / 3)

    def test_counters_read_the_kernel_from_construction(self, rt):
        """Kernel series read ``rt.stats``: work before attach counts, a
        detach folds the count in, and a re-attach counts nothing twice."""
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        f()
        f()  # hit before attach
        metrics = RuntimeMetrics().attach(rt)
        assert metrics.cache_hits.value == rt.stats.cache_hits == 1
        metrics.detach()
        f()  # hit while detached: not folded in
        assert metrics.cache_hits.value == 1
        metrics.attach(rt)
        assert metrics.cache_hits.value == rt.stats.cache_hits == 2
        f()
        metrics.detach()
        assert metrics.cache_hits.value == rt.stats.cache_hits == 3
        assert metrics.snapshot()["alphonse_cache_hits_total"]["value"] == 3
        with pytest.raises(AttributeError):
            metrics.cache_hits.inc()

    def test_per_procedure_time_histograms(self, rt):
        metrics = RuntimeMetrics().attach(rt)
        x = Cell(1, label="x")

        @cached
        def work():
            return x.get() * 2

        work()
        x.set(3)
        work()
        metrics.detach()
        table = metrics.procedure_table()
        names = [row[0] for row in table]
        assert "work" in names
        row = table[names.index("work")]
        assert row[1] == 2  # calls
        assert row[2] >= 0  # total_s

    def test_drain_histograms_observe(self, rt):
        metrics = RuntimeMetrics().attach(rt)
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get() + 1

        f()
        x.set(2)
        f()
        metrics.detach()
        assert metrics.drain_set_size.total >= 1
        assert metrics.drain_steps.total >= 1
        assert metrics.steps_per_change.total >= 1

    def test_snapshot_includes_derived_rate_and_round_trips(self, rt):
        metrics = RuntimeMetrics().attach(rt)
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        f()
        f()
        metrics.detach()
        snap = metrics.snapshot()
        assert snap["alphonse_cache_hit_rate"]["value"] == pytest.approx(0.5)
        assert json.loads(json.dumps(snap)) == snap

    def test_zero_cost_when_detached(self, rt):
        """attach/detach leaves the bus's subscriber counts unchanged, and
        the execution clock is installed only while attached."""
        before = {
            kind: rt.events.subscriber_count(kind)
            for kind in RuntimeMetrics.KINDS
        }
        assert rt._execution_clock is None
        metrics = RuntimeMetrics().attach(rt)
        for kind in RuntimeMetrics.KINDS:
            assert rt.events.subscriber_count(kind) == before[kind] + 1
        assert rt._execution_clock is not None
        assert not {
            EventKind.EXECUTION_STARTED, EventKind.EXECUTION,
            EventKind.NODE_POISONED,
        } & rt.events.observed
        metrics.detach()
        for kind in RuntimeMetrics.KINDS:
            assert rt.events.subscriber_count(kind) == before[kind]
        assert rt._execution_clock is None

    def test_the_collector_attached_last_times_bodies(self, rt):
        """A runtime has one execution clock: the collector attached last
        times its bodies, and another's detach leaves that clock alone."""
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        first = RuntimeMetrics().attach(rt)
        second = RuntimeMetrics().attach(rt)
        f()
        first.detach()
        x.set(2)
        f()
        assert (first.executions.value, second.executions.value) == (0, 2)
        second.detach()
        assert rt._execution_clock is None

    def test_double_attach_rejected(self, rt):
        metrics = RuntimeMetrics().attach(rt)
        with pytest.raises(RuntimeError):
            metrics.attach(rt)
        metrics.detach()

    def test_end_event_unwinds_activations_that_never_ended(self):
        """Without containment a raising body unwinds without being
        timed; the enclosing activation that returned is timed once."""
        runtime = Runtime(containment=False)
        metrics = RuntimeMetrics().attach(runtime)
        x = Cell(1, label="x")

        @cached
        def inner():
            x.get()
            raise ValueError("no end event")

        @cached
        def outer():
            try:
                inner()
            except ValueError:
                pass
            return x.get()

        with runtime.active():
            assert outer() == 1
        metrics.detach()
        assert metrics.executions.value == 1
        assert [row[:2] for row in metrics.procedure_table()] == [("outer", 1)]

    def test_end_event_without_a_start_leaves_the_stack(self):
        """Poison copied from an input runs no body, so it is not timed;
        the source's contained failure is."""
        runtime = Runtime()
        metrics = RuntimeMetrics().attach(runtime)
        x = Cell(1, label="x")

        @cached(strategy=EAGER)
        def source():
            if x.get() > 1:
                raise ValueError("bad input")
            return x.get()

        @cached(strategy=EAGER)
        def copied():
            return source() + 1

        with runtime.active():
            assert copied() == 2
            x.set(2)
            runtime.flush()
        metrics.detach()
        assert runtime.stats.nodes_poisoned == 2
        assert type(runtime.node_for(copied, ()).value) is Poisoned
        assert runtime.stats.executions == 2  # bodies that returned
        assert metrics.executions.value == 3
        assert sorted(row[:2] for row in metrics.procedure_table()) == [
            ("copied", 1), ("source", 2),
        ]


class _Tally:
    """The activations the execution clock must time, tallied from the
    events that once fed it: a body that returned (EXECUTION) or whose
    failure was contained (NODE_POISONED while its body runs on this
    thread).  Poison copied from an input has no body running."""

    def __init__(self, bus):
        self.running = {}
        self.counts = collections.Counter()
        self.superseded = self.copied = 0
        for kind in (
            EventKind.EXECUTION_STARTED, EventKind.EXECUTION,
            EventKind.NODE_POISONED,
        ):
            bus.subscribe(kind, self)

    def __call__(self, kind, node, amount, data):
        stack = self.running.setdefault(threading.get_ident(), [])
        if kind is EventKind.EXECUTION_STARTED:
            stack.append(node)
            return
        if kind is EventKind.EXECUTION and data is False:
            self.superseded += 1
        for depth in range(len(stack) - 1, -1, -1):
            if stack[depth] is node:
                # Entries above belong to activations that unwound.
                del stack[depth:]
                self.counts[node.ref.name] += 1
                return
        self.copied += 1


def _every_ending(runtime):
    """Activations that end every way: returned, contained, retried,
    re-entered and superseded (returning and raising), poison copied
    from an input; six eager components drain in one flush."""
    from repro.trees.avl import AvlTree

    with runtime.active():
        xs = [Cell(1, label=f"x{i}") for i in range(6)]
        attempts = [0] * 6

        @cached(strategy=EAGER)
        def source(i):
            if xs[i].get() % 2 == 0:
                raise ValueError("even input")
            return xs[i].get()

        @cached(strategy=EAGER)
        def copied(i):
            return source(i) + 1

        @cached(strategy=EAGER)
        def wobbly(i):
            attempts[i] += 1
            if attempts[i] % 2 == 0:
                raise TransientFault("blip")
            return xs[i].get()

        flag = Cell(0, label="flag")

        @cached
        def reenter():
            if flag.get() == 1:
                flag.set(2)  # re-marks this node: the call below re-enters
                reenter()
                raise ValueError("superseded")
            return flag.get()

        for i in range(6):
            copied(i)
            wobbly(i)
        for i in range(6):
            xs[i].set(2)
        runtime.flush()
        assert reenter() == 0
        flag.set(1)
        with pytest.raises(ValueError, match="superseded"):
            reenter()
        tree = AvlTree()
        for key in range(24):
            tree.insert(key)
        tree.rebalance()
        assert tree.check_avl()
        for key in range(24, 36):
            tree.insert(key)
        tree.rebalance()
        assert tree.check_avl()


class TestExecutionClock:
    @pytest.mark.parametrize("parallel", [None, 4], ids=["serial", "parallel4"])
    def test_counts_equal_the_activations_that_returned_or_were_poisoned(
        self, parallel
    ):
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, sleep=lambda seconds: None)
        )
        runtime = Runtime(parallel_drains=parallel, resilience=policy)
        tally = _Tally(runtime.events)
        metrics = RuntimeMetrics().attach(runtime)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # a lost update would lose a count
        try:
            _every_ending(runtime)
        finally:
            sys.setswitchinterval(interval)
        metrics.detach()
        runtime.close()
        timed = {name: calls for name, calls, _, _ in metrics.procedure_table()}
        assert timed == dict(tally.counts)
        assert metrics.executions.value == sum(tally.counts.values())
        # Each ending happened: six contained failures and six copies,
        # one retry per wobbly re-run, superseded activations that
        # returned (AVL rotations) and one that raised (not timed).
        assert runtime.stats.nodes_poisoned == 12 and tally.copied == 6
        assert timed["source"] == 12 and timed["copied"] == 6
        assert runtime.stats.retries == 6 and timed["wobbly"] == 12
        assert tally.superseded > 0 and timed["Avl.balance"] > 0
        assert timed["reenter"] == 2
        if parallel:  # bodies ran on the drain pool's threads too
            assert len(tally.running) > 1

    def test_a_default_served_ring_does_not_watch_execution_starts(self, rt):
        rt.obs.enable(spans=False, metrics=True, flight=True)
        assert EventKind.EXECUTION_STARTED not in rt.events.observed
        assert rt._execution_clock is not None
        rt.obs.enable(spans=True)  # span trees still get it
        assert EventKind.EXECUTION_STARTED in rt.events.observed
        rt.obs.disable()
        assert rt._execution_clock is None


class TestStatsJsonRoundTrip:
    def test_stats_snapshot_round_trips(self, rt):
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        f()
        x.set(2)
        f()
        snap = rt.stats.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["executions"] >= 1

    def test_stats_summary_round_trips(self, rt):
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        f()
        summary = rt.stats.summary()
        assert json.loads(json.dumps(summary)) == summary
        assert "executions" in summary
