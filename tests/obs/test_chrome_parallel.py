"""Chrome trace export under parallel drains: tid lanes + partition meta.

Concurrent partition drains emit their span boundaries from different
threads into one ring; the span fold keeps one stack per recorded
thread, so spans opened on different threads keep distinct ``tid``
lanes and their partition metadata through ``to_dict()`` / JSONL /
``trace_event`` exports.
"""

import json
import threading

from repro import Cell, Runtime, cached
from repro.core.events import EventBus, EventKind
from repro.obs import FlightRecorder, SpanTracer
from repro.obs.spans import KINDS


class TestSyntheticParallelLanes:
    """Two real threads emitting drain events through one locked bus."""

    def _run_two_drains(self):
        bus = EventBus()
        bus.use_lock()  # what Runtime(parallel_drains=N) does
        ring = FlightRecorder(kinds=KINDS).attach(bus)
        barrier = threading.Barrier(2)

        def drain(partition):
            barrier.wait()
            bus.emit(EventKind.DRAIN_STARTED, None, 1, {"partition": partition})
            bus.emit(EventKind.DRAIN, None, 3, {"partition": partition})

        threads = [
            threading.Thread(target=drain, args=(p,)) for p in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ring.detach()
        return SpanTracer(ring)

    def test_tid_lanes_survive_to_dict(self):
        tracer = self._run_two_drains()
        spans = tracer.spans()
        assert len(spans) == 2
        assert {s.meta["partition"] for s in spans} == {0, 1}
        tids = {s.tid for s in spans}
        assert len(tids) == 2, "each drain thread must get its own lane"
        for span in spans:
            record = json.loads(json.dumps(span.to_dict()))
            assert record["tid"] == span.tid
            assert record["meta"]["partition"] == span.meta["partition"]

    def test_jsonl_export_keeps_lanes(self):
        tracer = self._run_two_drains()
        records = [json.loads(line) for line in tracer.to_jsonl().splitlines()]
        assert len(records) == 2
        assert len({r["tid"] for r in records}) == 2
        assert {r["meta"]["partition"] for r in records} == {0, 1}

    def test_trace_event_export_keeps_lanes(self):
        tracer = self._run_two_drains()
        events = tracer.to_chrome()["traceEvents"]
        assert len(events) == 2
        by_tid = {e["tid"]: e for e in events}
        assert len(by_tid) == 2
        assert {e["args"]["partition"] for e in events} == {0, 1}
        for span in tracer.spans():
            event = by_tid[span.tid]
            assert event["args"]["partition"] == span.meta["partition"]
            assert event["args"]["steps"] == 3


class TestRealParallelDrains:
    """The same guarantees through an actual parallel-drain runtime."""

    def test_round_trip_with_parallel_drains(self):
        runtime = Runtime(parallel_drains=2)
        try:
            with runtime.active():
                runtime.obs.enable(spans=True, metrics=False)
                a = Cell(1, label="a")
                b = Cell(2, label="b")

                @cached
                def fa():
                    return a.get() + 1

                @cached
                def fb():
                    return b.get() * 2

                fa()
                fb()
                with runtime.batch():
                    a.set(10)
                    b.set(20)
                assert fa() == 11
                assert fb() == 40
                runtime.obs.disable()
                drains = [
                    s for s in runtime.obs.tracer.spans() if s.role == "drain"
                ]
                assert drains
                # Every drain span's lane and metadata survive the dict
                # and trace_event round trips, byte-identical through
                # JSON.
                chrome = json.loads(
                    json.dumps(runtime.obs.tracer.to_chrome())
                )
                drain_events = [
                    e for e in chrome["traceEvents"] if e["cat"] == "drain"
                ]
                assert len(drain_events) == len(drains)
                span_lanes = sorted(s.tid for s in drains)
                event_lanes = sorted(e["tid"] for e in drain_events)
                assert event_lanes == span_lanes
                for span in drains:
                    record = json.loads(json.dumps(span.to_dict()))
                    assert record["tid"] == span.tid
                    if "partition" in span.meta:
                        assert record["meta"]["partition"] == span.meta[
                            "partition"
                        ]
        finally:
            runtime.close()
