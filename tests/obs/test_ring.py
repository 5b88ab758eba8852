"""The one event ring: what it subscribes and what it holds; and that
explain, which reads node stamps instead, touches nothing."""

import pytest

from repro import Cell, Runtime, cached
from repro.core.events import EventBus, EventKind
from repro.obs import WIDE_CAPACITY, FlightRecorder
from repro.obs.spans import KINDS as SPAN_KINDS


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
        ring.watch(bus, SPAN_KINDS)
        for _ in range(30):
            bus.emit(EventKind.EXECUTION, None)
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
        # Only span kinds widen the ring now; explain records nothing.
        bus = EventBus()
        ring = FlightRecorder(8).watch(bus, {EventKind.CACHE_HIT})
        assert ring._ring.maxlen == 8
        ring.watch(bus, SPAN_KINDS)
        assert ring._ring.maxlen == WIDE_CAPACITY == 100_000

    def test_watch_refuses_a_second_bus(self):
        ring = FlightRecorder().attach(EventBus())
        with pytest.raises(RuntimeError):
            ring.watch(EventBus(), SPAN_KINDS)


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

    def test_every_record_is_timed(self, rt):
        rt.obs.enable(spans=False, metrics=False, flight=True)
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        f()
        x.set(2)
        f()
        f()  # a cache hit
        kinds = {r[1] for _, r in rt.obs.flight.entries()}
        assert EventKind.DRAIN in kinds  # the flight view shows it
        # Nothing records executions, changes or hits: explain reads the
        # stamps on the nodes instead.
        assert not kinds & {
            EventKind.EXECUTION,
            EventKind.CHANGE_DETECTED,
            EventKind.CACHE_HIT,
        }
        rt.obs.enable(metrics=False)  # now fold spans too
        assert rt.events.subscriber_count(EventKind.EXECUTION) == 1
        x.set(3)
        f()
        records = [r for _, r in rt.obs.flight.entries()]
        assert {EventKind.EXECUTION, EventKind.EXECUTION_STARTED} <= {
            r[1] for r in records
        }
        assert all(r[0] is not None and r[6] is not None for r in records)


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
