"""The one event ring: what it subscribes, what it holds, and that the
explain view reads it without touching the runtime."""

import pytest

from repro import Cell, Runtime, cached
from repro.core.events import EventBus, EventKind
from repro.obs import WIDE_CAPACITY, FlightRecorder
from repro.obs.explain import KINDS as EXPLAIN_KINDS


class TestHandlerCounts:
    def test_enable_subscribes_one_ring_handler_per_kind(self, rt):
        rt.obs.enable(flight=True)
        counts = {
            kind: rt.events.subscriber_count(kind)
            for kind in (
                EventKind.EXECUTION,
                EventKind.DRAIN,
                EventKind.BATCH_COMMIT,
                EventKind.ROLLBACK,
                EventKind.NODE_POISONED,
            )
        }
        # The ring plus the metrics collector for drains; the ring alone
        # for the rest (the kernel times bodies for metrics).
        assert counts == {
            EventKind.EXECUTION: 1,
            EventKind.DRAIN: 2,
            EventKind.BATCH_COMMIT: 1,
            EventKind.ROLLBACK: 1,
            EventKind.NODE_POISONED: 1,
        }

    def test_enable_is_idempotent_per_kind(self, rt):
        rt.obs.enable(flight=True)
        rt.obs.enable(flight=True)
        assert rt.events.subscriber_count(EventKind.EXECUTION) == 1
        assert rt.events.subscriber_count(EventKind.DRAIN) == 2
        rt.obs.disable()
        assert rt.events.subscriber_count(EventKind.EXECUTION) == 0
        assert not rt.events.observed


class TestCapacityRule:
    def test_own_kinds_keep_the_capacity(self):
        bus = EventBus()
        ring = FlightRecorder(8).attach(bus)
        for _ in range(20):
            bus.emit(EventKind.DRAIN, None, 1)
        assert len(ring) == 8
        assert ring.dropped == 12

    def test_watching_hot_kinds_widens_but_the_flight_view_does_not(self):
        bus = EventBus()
        ring = FlightRecorder(8).attach(bus)
        ring.watch(bus, EXPLAIN_KINDS)
        for _ in range(30):
            bus.emit(EventKind.CACHE_HIT, None)
            bus.emit(EventKind.DRAIN, None, 1)
        ring.note("session-op", "read a")
        assert len(ring) == 61  # nothing dropped: the ring widened
        assert ring.dropped == 0
        records = ring.records()
        assert len(records) == 8  # the newest `capacity` flight records
        assert {r["kind"] for r in records} == {"drain", "session-op"}
        assert records[-1]["kind"] == "session-op"
        assert [r["seq"] for r in records] == [47, 49, 51, 53, 55, 57, 59, 60]

    def test_wide_capacity_is_the_old_explain_limit(self):
        bus = EventBus()
        ring = FlightRecorder(8).watch(bus, EXPLAIN_KINDS)
        assert ring._ring.maxlen == WIDE_CAPACITY == 100_000

    def test_watch_refuses_a_second_bus(self):
        ring = FlightRecorder().attach(EventBus())
        with pytest.raises(RuntimeError):
            ring.watch(EventBus(), EXPLAIN_KINDS)


class TestRecordLayout:
    def test_records_keep_nodes_and_context_by_reference(self, rt):
        from repro.obs import TraceContext, trace_scope

        rt.obs.enable(metrics=False)
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        ctx = TraceContext(trace_id="t-ref")
        with trace_scope(ctx):
            f()
        (seq, record), = [
            e for e in rt.obs.flight.entries() if e[1][1] is EventKind.EXECUTION
        ]
        ts, kind, node, amount, data, trace, tid = record
        assert node.label == "f()" and trace is ctx
        assert isinstance(ts, float) and isinstance(tid, int)

    def test_one_thread_id_object_per_thread(self, rt):
        rt.obs.enable(metrics=False)
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        for value in range(3):
            x.set(value)
            f()
        tids = [r[6] for _, r in rt.obs.flight.entries() if r[0] is not None]
        assert len(tids) >= 6
        assert all(tid is tids[0] for tid in tids)

    def test_only_kinds_a_view_places_in_time_are_timed(self, rt):
        rt.obs.enable(spans=False, metrics=False, flight=True)
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        def timed_kinds():
            timed = {}
            for _, r in rt.obs.flight.entries():
                timed[r[1]] = r[0] is not None
            return timed

        f()
        x.set(2)
        f()
        f()  # a cache hit
        timed = timed_kinds()
        assert timed[EventKind.DRAIN]  # the flight view shows it
        assert not timed[EventKind.EXECUTION]  # no span is folded yet
        assert not timed[EventKind.CHANGE_DETECTED]  # only explain reads it
        assert not timed[EventKind.CACHE_HIT]
        rt.obs.enable(explain=False, metrics=False)  # now fold spans too
        assert rt.events.subscriber_count(EventKind.EXECUTION) == 1
        x.set(3)
        f()
        timed = timed_kinds()
        assert timed[EventKind.EXECUTION] and timed[EventKind.EXECUTION_STARTED]
        assert not timed[EventKind.CHANGE_DETECTED]
        rt.obs.disable()
        rt.obs.enable(spans=False, metrics=False)
        x.set(4)
        f()
        assert not timed_kinds()[EventKind.EXECUTION]  # detach reset it


class TestExplainReadsWithoutSideEffects:
    def test_explain_leaves_every_counter_unchanged(self):
        rt = Runtime()
        try:
            with rt.active():
                assert rt.partitions.enabled
                rt.obs.enable()
                cells = [Cell(i, label=f"c{i}") for i in range(4)]

                @cached
                def total():
                    return sum(c.get() for c in cells)

                total()
                cells[2].set(10)
                assert total() == 14
                before = rt.stats.snapshot()
                explanation = rt.explain("total")
                assert rt.stats.snapshot() == before
                assert explanation.verdict == "recomputed"
                assert "change-detected" in explanation.kinds()
        finally:
            rt.close()
