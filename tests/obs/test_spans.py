"""Span trees: folding the ring's records into nested timed spans."""

import json

import pytest

from repro import Cell, cached, maintained, TrackedObject, Watchdog, Runtime
from repro.core.errors import PropagationBudgetError
from repro.core.events import EventBus, EventKind
from repro.obs import FlightRecorder, SpanTracer
from repro.obs.spans import KINDS


def span_ring(bus, capacity=512, clock=None):
    """A ring recording the span boundary kinds from ``bus``."""
    return FlightRecorder(capacity, kinds=KINDS, clock=clock).attach(bus)


class TestSpanStructure:
    def test_execute_span_per_body(self, rt):
        ring = span_ring(rt.events)
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get() + 1

        f()
        ring.detach()
        tracer = SpanTracer(ring)
        executes = [s for s in tracer.spans() if s.role == "execute"]
        assert len(executes) == 1
        assert executes[0].label == "f()"
        assert executes[0].status == "ok"
        assert executes[0].duration >= 0

    def test_drain_nested_under_force(self, rt):
        ring = span_ring(rt.events)
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get() * 2

        f()
        x.set(5)
        f()
        ring.detach()
        tracer = SpanTracer(ring)
        forces = [s for s in tracer.spans() if s.role == "force"]
        assert forces, "stale re-demand should force-evaluate"
        assert any(c.role == "drain" for f_ in forces for c in f_.children)

    def test_drain_span_records_pending_and_steps(self, rt):
        ring = span_ring(rt.events)
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get() * 2

        f()
        x.set(9)
        f()
        ring.detach()
        tracer = SpanTracer(ring)
        drains = [s for s in tracer.spans() if s.role == "drain"]
        assert drains
        assert drains[0].meta["pending"] >= 1
        assert drains[0].meta["steps"] >= 1

    def test_batch_span_wraps_commit(self, rt):
        ring = span_ring(rt.events)
        x = Cell(1, label="x")
        y = Cell(1, label="y")
        with rt.batch():
            x.set(2)
            y.set(3)
        ring.detach()
        tracer = SpanTracer(ring)
        batches = [s for s in tracer.spans() if s.role == "batch"]
        assert len(batches) == 1
        assert batches[0].meta.get("writes") == 2

    def test_nested_executions_nest(self, rt):
        ring = span_ring(rt.events)
        x = Cell(1, label="x")

        @cached
        def inner():
            return x.get() + 1

        @cached
        def outer():
            return inner() * 10

        outer()
        ring.detach()
        tracer = SpanTracer(ring)
        outers = [s for s in tracer.spans() if s.label == "outer()"]
        assert len(outers) == 1
        assert [c.label for c in outers[0].children] == ["inner()"]

    def test_no_spans_without_attach(self, rt):
        tracer = SpanTracer(FlightRecorder(kinds=KINDS))
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        f()
        assert len(tracer) == 0


class TestSpanFaults:
    def test_poisoned_body_closes_span(self, rt):
        ring = span_ring(rt.events)
        x = Cell(1, label="x")

        @cached
        def bad():
            x.get()
            raise ValueError("boom")

        with pytest.raises(Exception):
            bad()
        ring.detach()
        tracer = SpanTracer(ring)
        executes = [s for s in tracer.spans() if s.role == "execute"]
        assert executes
        assert executes[0].status == "poisoned"

    def test_aborted_drain_marked(self):
        runtime = Runtime(watchdog=Watchdog(max_steps=1))
        with runtime.active():
            ring = span_ring(runtime.events)
            x = Cell(1, label="x")

            class T(TrackedObject):
                _fields_ = ("v",)

                @maintained
                def get(self):
                    return self.v

            objs = [T(v=x.get()) for _ in range(3)]
            for obj in objs:
                obj.get()
            with pytest.raises(PropagationBudgetError):
                x.set(2)
                for obj in objs:
                    obj.v = x.get()
                runtime.flush()
            ring.detach()
        tracer = SpanTracer(ring)
        drains = [s for s in tracer.spans() if s.role == "drain"]
        assert any(s.status == "aborted" for s in drains)

    def test_detach_closes_leftovers_as_interrupted(self):
        bus = EventBus()
        ring = span_ring(bus, clock=iter([1.0, 2.0]).__next__)
        bus.emit(EventKind.BATCH_STARTED, None)  # t=1
        bus.emit(EventKind.EXECUTION_STARTED, None)  # t=2
        ring.detach()
        roots = SpanTracer(ring).roots
        assert len(roots) == 1
        assert roots[0].status == "interrupted"
        assert roots[0].end == 2.0  # the newest record
        assert [c.status for c in roots[0].children] == ["interrupted"]

    def test_unmatched_end_ignored(self):
        bus = EventBus()
        ring = span_ring(bus)
        bus.emit(EventKind.DRAIN, None, amount=3)  # no DRAIN_STARTED
        ring.detach()
        assert len(SpanTracer(ring)) == 0

    def test_ring_that_dropped_an_open_record(self):
        """A full ring keeps the tail: a close whose open record fell
        off the front is ignored, and what remains still nests."""

        class FakeNode:
            label, node_id = "f()", 1

        bus = EventBus()
        ring = span_ring(bus, capacity=3)
        bus.emit(EventKind.DRAIN_STARTED, None, 1)  # dropped
        bus.emit(EventKind.EXECUTION_STARTED, FakeNode)
        bus.emit(EventKind.EXECUTION, FakeNode)
        bus.emit(EventKind.DRAIN, None, 1)  # its open record is gone
        assert ring.dropped == 1
        (span,) = SpanTracer(ring).spans()
        assert (span.role, span.label, span.status) == ("execute", "f()", "ok")


class TestSpanExports:
    def _traced(self, rt):
        ring = span_ring(rt.events)
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get() + 1

        f()
        x.set(2)
        f()
        ring.detach()
        tracer = SpanTracer(ring)
        return tracer

    def test_jsonl_round_trip(self, rt):
        tracer = self._traced(rt)
        lines = tracer.to_jsonl().splitlines()
        assert len(lines) == len(tracer)
        for line in lines:
            record = json.loads(line)
            assert {"role", "label", "depth", "duration", "status"} <= set(
                record
            )

    def test_jsonl_write(self, rt, tmp_path):
        tracer = self._traced(rt)
        path = tmp_path / "trace.jsonl"
        count = tracer.write(str(path))
        assert count == len(tracer)
        assert len(path.read_text().splitlines()) == count

    def test_chrome_trace_format(self, rt):
        tracer = self._traced(rt)
        trace = tracer.to_chrome()
        assert trace["displayTimeUnit"] == "ms"
        assert trace["traceEvents"]
        for event in trace["traceEvents"]:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert event["pid"] == 1

    def test_chrome_write(self, rt, tmp_path):
        tracer = self._traced(rt)
        path = tmp_path / "trace.json"
        count = tracer.write_chrome(str(path))
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == count


class TestAggregation:
    def test_by_procedure_self_vs_total(self):
        bus = EventBus()
        ticks = iter([0.0, 1.0, 3.0, 4.0]).__next__

        class FakeNode:
            def __init__(self, label, node_id):
                self.label = label
                self.node_id = node_id

        outer, inner = FakeNode("outer()", 1), FakeNode("inner(2)", 2)
        ring = span_ring(bus, clock=ticks)
        bus.emit(EventKind.EXECUTION_STARTED, outer)  # t=0
        bus.emit(EventKind.EXECUTION_STARTED, inner)  # t=1
        bus.emit(EventKind.EXECUTION, inner)  # t=3
        bus.emit(EventKind.EXECUTION, outer)  # t=4
        ring.detach()
        tracer = SpanTracer(ring)
        table = tracer.by_procedure()
        assert table["outer"]["total_s"] == 4.0
        assert table["outer"]["self_s"] == 2.0  # 4 minus inner's 2
        assert table["inner"]["total_s"] == 2.0
        assert table["inner"]["calls"] == 1
