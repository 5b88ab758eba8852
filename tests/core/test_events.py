"""The EventBus observability layer: typed events, subscribers, the
trace exporter, and the counting contract — the kernel's counters agree
with the events it announces, and an unobserved kind is never emitted."""

import collections
import contextlib

import pytest

from repro import (
    EAGER,
    LRU,
    Cell,
    NodeExecutionError,
    PropagationBudgetError,
    Runtime,
    Watchdog,
    cached,
)
from repro.core.events import EventBus, EventKind
from repro.obs.flight import WIDE_CAPACITY, FlightRecorder, render_data
from repro.core.stats import RuntimeStats
from repro.persist.ids import fresh_id_space
from repro.persist.recover import recover
from repro.spreadsheet import Spreadsheet

from ..counting import COUNTER_FOR, SPECIAL_COUNTERS, tally


def _collect(bus, kind, sink):
    bus.subscribe(
        kind, lambda k, node, amount, data: sink.append((node, amount, data))
    )


class TestEventBus:
    def test_subscribe_and_emit(self):
        bus = EventBus()
        seen = []
        _collect(bus, EventKind.ACCESS, seen)
        bus.emit(EventKind.ACCESS, "n")
        assert seen == [("n", 1, None)]

    def test_kind_isolation(self):
        bus = EventBus()
        seen = []
        _collect(bus, EventKind.ACCESS, seen)
        bus.emit(EventKind.MODIFY)
        assert seen == []

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []

        def handler(kind, node, amount, data):
            seen.append(kind)

        bus.subscribe(EventKind.ACCESS, handler)
        bus.emit(EventKind.ACCESS)
        bus.unsubscribe(EventKind.ACCESS, handler)
        bus.emit(EventKind.ACCESS)
        assert len(seen) == 1
        # unsubscribing twice is a no-op
        bus.unsubscribe(EventKind.ACCESS, handler)

    def test_subscribe_all_sees_every_kind(self):
        bus = EventBus()
        seen = []
        bus.subscribe_all(lambda k, n, a, d: seen.append(k))
        bus.emit(EventKind.ACCESS)
        bus.emit(EventKind.EXECUTION)
        assert seen == [EventKind.ACCESS, EventKind.EXECUTION]
        bus.unsubscribe_all(bus._all[0])
        bus.emit(EventKind.ACCESS)
        assert len(seen) == 2

    def test_subscriber_count(self):
        bus = EventBus()
        assert bus.subscriber_count(EventKind.ACCESS) == 0
        bus.subscribe(EventKind.ACCESS, lambda *a: None)
        bus.subscribe_all(lambda *a: None)
        assert bus.subscriber_count(EventKind.ACCESS) == 2
        assert bus.subscriber_count(EventKind.MODIFY) == 1
        assert bus.subscriber_count() == 1

    def test_observed_tracks_subscriptions(self):
        bus = EventBus()
        assert bus.observed == set()

        def handler(kind, node, amount, data):
            pass

        bus.subscribe(EventKind.ACCESS, handler)
        bus.subscribe(EventKind.ACCESS, handler)
        assert bus.observed == {EventKind.ACCESS}
        bus.unsubscribe(EventKind.ACCESS, handler)
        assert bus.observed == {EventKind.ACCESS}  # one handler left
        bus.unsubscribe(EventKind.ACCESS, handler)
        assert bus.observed == set()

    def test_subscribe_all_observes_every_kind(self):
        bus = EventBus()
        observed = bus.observed
        bus.subscribe(EventKind.MODIFY, lambda *a: None)
        everything = bus.subscribe_all(lambda *a: None)
        assert observed == set(EventKind)
        bus.unsubscribe(EventKind.MODIFY, bus._by_kind[EventKind.MODIFY][0])
        assert observed == set(EventKind)  # the catch-all still sees it
        bus.unsubscribe_all(everything)
        assert observed == set()
        assert bus.observed is observed  # updated in place

    def test_amount_batches(self):
        bus = EventBus()
        seen = []
        _collect(bus, EventKind.EDGE_REMOVED, seen)
        bus.emit(EventKind.EDGE_REMOVED, None, amount=7)
        assert seen == [(None, 7, None)]


class TestRuntimeEmitsTypedEvents:
    def test_node_and_edge_events(self, rt):
        seen = {"nodes": [], "edges": []}
        rt.events.subscribe(
            EventKind.NODE_CREATED,
            lambda k, n, a, d: seen["nodes"].append(n.label),
        )
        rt.events.subscribe(
            EventKind.EDGE_ADDED,
            lambda k, n, a, d: seen["edges"].append((n.label, d.label)),
        )
        cell = Cell(1, label="src")

        @cached
        def reader():
            return cell.get()

        reader()
        assert "src" in seen["nodes"]
        assert any(label.startswith("reader") for label in seen["nodes"])
        assert ("src", "reader()") in seen["edges"]

    def test_inconsistent_marked_event(self, rt):
        marked = []
        rt.events.subscribe(
            EventKind.INCONSISTENT_MARKED,
            lambda k, n, a, d: marked.append(n.label),
        )
        cell = Cell(1, label="c")

        @cached
        def reader():
            return cell.get()

        reader()
        cell.set(2)
        assert marked == ["c"]

    def test_quiescence_cut_event(self, rt):
        cuts = []
        rt.events.subscribe(
            EventKind.QUIESCENCE_CUT, lambda k, n, a, d: cuts.append(n.label)
        )
        cell = Cell(5, label="x")

        @cached(strategy=EAGER)
        def sign():
            return 1 if cell.get() > 0 else -1

        sign()
        cell.set(7)  # recomputes to 1: quiescent
        rt.flush()
        assert cuts and cuts[0].startswith("sign")

    def test_execution_event_reports_commit_flag(self, rt):
        flags = []
        rt.events.subscribe(
            EventKind.EXECUTION, lambda k, n, a, d: flags.append(d)
        )
        cell = Cell(1, label="c")

        @cached
        def reader():
            return cell.get()

        reader()
        assert flags == [True]


def _trace_ring(capacity=WIDE_CAPACITY):
    """A ring whose own kinds are every kind: its flight view is the
    full event trace the lang CLI's ``--trace`` writes."""
    return FlightRecorder(capacity, kinds=frozenset(EventKind))


class TestTraceExporter:
    """The JSONL event trace, now the flight view of an all-kinds ring."""

    def test_capture_and_counts(self, rt):
        trace = _trace_ring().attach(rt.events)
        cell = Cell(1, label="c")

        @cached
        def reader():
            return cell.get()

        reader()
        cell.set(2)
        reader()
        trace.detach()
        counts = {}
        for record in trace.records():
            counts[record["kind"]] = (
                counts.get(record["kind"], 0) + record["amount"]
            )
        assert counts["execution"] == 2
        assert counts["change-detected"] == 1
        assert counts["access"] >= 2

    def test_jsonl_round_trip(self, rt, tmp_path):
        import json

        trace = _trace_ring().attach(rt.events)
        cell = Cell(1, label="c")

        @cached
        def reader():
            return cell.get()

        reader()
        trace.detach()
        path = tmp_path / "trace.jsonl"
        path.write_text(trace.to_jsonl() + "\n")
        lines = path.read_text().splitlines()
        assert len(trace) == len(lines)
        records = [json.loads(line) for line in lines]
        assert [r["seq"] for r in records] == list(range(len(records)))
        kinds = {r["kind"] for r in records}
        assert {"node-created", "edge-added", "execution"} <= kinds
        # edge events carry the destination label as data
        edge = next(r for r in records if r["kind"] == "edge-added")
        assert edge["label"] == "c"
        assert edge["data"] == "reader()"

    def test_limit_keeps_tail(self, rt):
        trace = _trace_ring(capacity=5).attach(rt.events)
        cell = Cell(0, label="c")
        for i in range(20):
            cell.set(i)
        trace.detach()
        assert len(trace) == 5
        seqs = [r["seq"] for r in trace.records()]
        assert seqs == sorted(seqs)
        assert seqs[-1] > 5  # the tail, not the head

    def test_detached_exporter_records_nothing(self, rt):
        trace = _trace_ring().attach(rt.events)
        trace.detach()
        Cell(1, label="c").set(2)
        assert len(trace) == 0

    def test_render_lists_element_wise(self):
        """List/tuple payloads render per element, not as one repr blob."""

        class Labeled:
            label = "watched"

        rendered = render_data([Labeled(), 3, "x"])
        assert rendered == ["watched", 3, "x"]
        assert render_data((Labeled(), 1.5)) == ["watched", 1.5]
        # nested structures recurse
        assert render_data([["a", Labeled()]]) == [["a", "watched"]]

    def test_render_event_with_list_payload(self, rt):
        """An emitted list payload survives into the JSONL as elements."""
        import json

        trace = _trace_ring().attach(rt.events)
        rt.events.emit(
            EventKind.WATCHDOG_TRIPPED,
            None,
            data=[("hot()", 7), ("cold()", 1)],
        )
        trace.detach()
        record = json.loads(trace.to_jsonl())
        assert record["data"] == [["hot()", 7], ["cold()", 1]]


#: The kinds announced at per-operation sites: reads, writes, calls,
#: executions, poisonings, node creation, edges, order shifts,
#: union-find, marking, and drains.  A runtime nobody observes must not
#: emit any of them.
PER_OPERATION_KINDS = frozenset(
    {
        EventKind.ACCESS,
        EventKind.UNCHECKED_SUPPRESSION,
        EventKind.MODIFY,
        EventKind.CHANGE_DETECTED,
        EventKind.CACHE_HIT,
        EventKind.CACHE_MISS,
        EventKind.CACHE_EVICTION,
        EventKind.FORCED_EVALUATION_STARTED,
        EventKind.FORCED_EVALUATION,
        EventKind.EXECUTION_STARTED,
        EventKind.EXECUTION,
        EventKind.NODE_POISONED,
        EventKind.NODE_CREATED,
        EventKind.EDGE_ADDED,
        EventKind.EDGE_REMOVED,
        EventKind.ORDER_SHIFTED,
        EventKind.PARTITION_FIND,
        EventKind.PARTITION_UNION,
        EventKind.INCONSISTENT_MARKED,
        EventKind.DRAIN_STARTED,
        EventKind.PROPAGATION_STEP,
        EventKind.EAGER_REEXECUTION,
        EventKind.QUIESCENCE_CUT,
        EventKind.DRAIN,
        EventKind.DRAIN_ABORTED,
    }
)

#: The kinds persistence announces: a runtime with a persistence manager
#: but no handler for them must not emit them.
PERSISTENCE_KINDS = frozenset(
    {EventKind.WAL_APPEND, EventKind.CHECKPOINT, EventKind.RECOVERY}
)

#: The workload's drain budget: every drain but the last stays under it.
MAX_STEPS = 40


def _mixed_workload(rt):
    """Drive every counted path of the engine on ``rt`` (active).

    A cached DAG with demand and eager nodes (hits, misses, forced
    evaluation, quiescence cuts), spreadsheet edits and reads, a batch
    commit with coalesced writes, a rollback whose mid-batch value
    leaked, poison then heal (including the eager poisoned-input
    shortcut), LRU eviction, a budgeted drain, an unchecked region, and
    a final drain that trips the watchdog.
    """
    a, b, d = Cell(1, label="a"), Cell(2, label="b"), Cell(2, label="d")

    @cached
    def left():
        return a.get() + 1

    @cached(strategy=EAGER)
    def right():
        return b.get() * 2

    @cached
    def top():
        return left() + right()

    @cached(strategy=EAGER)
    def sign():
        return 1 if a.get() > 0 else -1

    assert top() == 6 and top() == 6
    sign()
    a.set(5)
    assert top() == 10  # forced evaluation of the pending write
    b.set(2)  # no change
    b.set(3)
    rt.flush()
    assert top() == 12
    a.set(7)  # sign() recomputes to 1: quiescence cut
    rt.flush()

    sheet = Spreadsheet(3, 3)
    sheet.set_formula(0, 0, 5)
    sheet.set_formula(1, 1, "R0C0 + 2")
    sheet.set_formula(2, 2, "SUM(R0C0:R1C1)")
    assert sheet.values()[2][2] == 12
    sheet.set_formula(0, 0, 9)
    assert sheet.value(2, 2) == 20

    with rt.batch():
        a.set(1)
        a.set(2)
        b.set(4)
    assert top() == 11

    @cached
    def peek_a():
        return a.get()

    with contextlib.suppress(RuntimeError):
        with rt.batch(rollback_on_error=True):
            a.set(100)
            assert peek_a() == 100  # the mid-batch value leaks
            raise RuntimeError("abort the batch")
    assert peek_a() == 2

    @cached
    def inverse():
        return 1 / d.get()

    @cached(strategy=EAGER)
    def eager_inverse():
        return 1 / d.get()

    @cached(strategy=EAGER)
    def eager_dependent():
        return eager_inverse() + 1

    assert inverse() == 0.5 and eager_dependent() == 1.5
    d.set(0)
    rt.flush()  # eager_dependent is poisoned from its input
    for _ in range(2):
        with pytest.raises(NodeExecutionError):
            inverse()
    d.set(4)
    assert inverse() == 0.25
    rt.flush()
    assert eager_dependent() == 1.25

    @cached(policy=lambda: LRU(2))
    def scaled(i):
        return a.get() * i

    for i in range(5):
        scaled(i)

    fan_cells = [Cell(i, label=f"f{i}") for i in range(4)]

    @cached(strategy=EAGER)
    def fan(i):
        return fan_cells[i].get() + 1

    for i in range(4):
        fan(i)
    for cell in fan_cells:
        cell.set(cell.peek() + 10)
    while rt.idle_tick(3):
        pass

    @cached
    def unchecked_sum():
        with rt.unchecked():
            return a.get() + b.get()

    assert unchecked_sum() == 6

    wide = Cell(0, label="wide")

    @cached(strategy=EAGER)
    def reader(i):
        return wide.get() + i

    for i in range(MAX_STEPS):
        reader(i)
    wide.set(1)
    with pytest.raises(PropagationBudgetError):
        rt.flush()


def _workload_runtime():
    return Runtime(watchdog=Watchdog(max_steps=MAX_STEPS))


def _persisted_workload(path, events=None, recovered_events=None):
    """Persist a cached sum at ``path`` on a runtime announcing on
    ``events``: a standalone checkpoint, a manager checkpoint, then a
    write, a batch and an app record in the WAL; then recover it onto
    ``recovered_events``.  Returns both runtimes."""
    fresh_id_space()
    rt = Runtime(events=events)
    with rt.active():
        cells = [Cell(i, label="p") for i in range(3)]

        @cached
        def total():
            return sum(cell.get() for cell in cells)

        assert total() == 3
        rt.checkpoint(path + ".standalone")
        manager = rt.persist_to(path)
        manager.checkpoint()
        cells[0].set(10)
        with rt.batch():
            cells[1].set(20)
            cells[2].set(30)
        manager.log_app({"op": "note"})
        assert total() == 60
        manager.close()
    fresh_id_space()
    recovered, report = recover(path, events=recovered_events)
    assert report.mode == "replayed"
    return rt, recovered


class TestKernelCounting:
    """Counters are incremented in the kernel; the events agree."""

    def test_counters_match_the_observed_event_stream(self):
        """With a subscribe-all recorder attached, each counter's delta
        equals the amount-weighted count of the event that announces it
        — the same numbers a bus subscriber would have counted."""
        rt = _workload_runtime()
        counts = tally(rt.events)
        before = rt.stats.snapshot()
        with rt.active():
            _mixed_workload(rt)
        delta = rt.stats.delta(before)
        assert delta == {name: counts[name] for name in delta}
        exercised = {name for name, value in delta.items() if value}
        assert {
            "accesses",
            "cache_evictions",
            "changes_detected",
            "drains_aborted",
            "eager_reexecutions",
            "forced_evaluations",
            "nodes_poisoned",
            "quiescent_stops",
            "rollbacks",
            "unchecked_suppressions",
            "watchdog_trips",
            "batch_writes_coalesced",
        } <= exercised

    def test_persistence_counters_match_the_observed_event_stream(
        self, tmp_path
    ):
        """Counted from construction, a persisted runtime and the one
        recovered from its files agree with the streams of their buses."""
        bus, recovered_bus = EventBus(), EventBus()
        counts, recovered_counts = tally(bus), tally(recovered_bus)
        rt, recovered = _persisted_workload(
            str(tmp_path / "state"), bus, recovered_bus
        )
        for runtime, tallied in ((rt, counts), (recovered, recovered_counts)):
            snap = runtime.stats.snapshot()
            assert snap == {name: tallied[name] for name in snap}
        assert (rt.stats.checkpoints, rt.stats.wal_records) == (2, 3)
        assert (rt.stats.recoveries, recovered.stats.recoveries) == (0, 1)

    def test_every_counter_is_announced_by_an_event(self):
        announced = list(COUNTER_FOR.values())
        for names in SPECIAL_COUNTERS.values():
            announced.extend(names)
        assert sorted(announced) == sorted(RuntimeStats().snapshot())

    def test_unobserved_runtime_emits_no_per_operation_event(
        self, monkeypatch, tmp_path
    ):
        emitted = self._spy(monkeypatch)
        rt = _workload_runtime()
        with rt.active():
            _mixed_workload(rt)
        assert not set(emitted) & PER_OPERATION_KINDS
        assert rt.stats.executions and rt.stats.accesses
        # The persistence manager observes writes, not its own kinds.
        persisted, recovered = _persisted_workload(str(tmp_path / "state"))
        assert not set(emitted) & PERSISTENCE_KINDS
        assert persisted.stats.checkpoints == 2
        assert persisted.stats.wal_records == 3
        assert recovered.stats.recoveries == 1

    def test_one_subscription_turns_on_only_its_kind(self, monkeypatch):
        emitted = self._spy(monkeypatch)
        rt = _workload_runtime()
        executions = []
        rt.events.subscribe(
            EventKind.EXECUTION, lambda k, n, a, d: executions.append(n)
        )
        with rt.active():
            _mixed_workload(rt)
        assert set(emitted) & PER_OPERATION_KINDS == {EventKind.EXECUTION}
        assert len(executions) == rt.stats.executions

    @staticmethod
    def _spy(monkeypatch):
        emitted = collections.Counter()
        real_emit = EventBus.emit

        def spy(bus, kind, node=None, amount=1, data=None):
            emitted[kind] += 1
            real_emit(bus, kind, node, amount, data)

        monkeypatch.setattr(EventBus, "emit", spy)
        return emitted
