"""The rt.obs facade: lifecycle, profile(), and the combined snapshot."""

import json

from repro import Cell, Observability, cached


class TestFacadeLifecycle:
    def test_obs_is_lazy_and_cached(self, rt):
        first = rt.obs
        assert isinstance(first, Observability)
        assert rt.obs is first
        assert not first.enabled

    def test_enable_disable(self, rt):
        rt.obs.enable()
        assert rt.obs.enabled
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        f()
        assert len(rt.obs.tracer) > 0
        assert len(rt.obs.flight) > 0
        rt.obs.disable()
        assert not rt.obs.enabled
        spans_before = len(rt.obs.tracer)
        x.set(2)
        f()
        assert len(rt.obs.tracer) == spans_before  # detached: silent

    def test_enable_is_idempotent(self, rt):
        rt.obs.enable()
        rt.obs.enable()  # second call must not double-subscribe
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        f()
        executes = [s for s in rt.obs.tracer.spans() if s.role == "execute"]
        assert len(executes) == 1

    def test_selective_enable(self, rt):
        rt.obs.enable(spans=False)
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        f()
        assert len(rt.obs.tracer) == 0
        assert len(rt.obs.flight) == 0
        assert rt.obs.metrics.executions.value == 1
        rt.obs.disable()

    def test_profile_context_manager(self, rt):
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        with rt.obs.profile() as obs:
            f()
        assert not rt.obs.enabled  # restored
        assert obs.metrics.executions.value == 1

    def test_profile_preserves_enabled_state(self, rt):
        rt.obs.enable()
        with rt.obs.profile():
            pass
        assert rt.obs.enabled

    def test_clear(self, rt):
        rt.obs.enable()
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        f()
        rt.obs.clear()
        assert len(rt.obs.tracer) == 0
        assert len(rt.obs.flight) == 0


class TestCombinedSnapshot:
    def test_snapshot_shape_and_round_trip(self, rt):
        rt.obs.enable()
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        f()
        snap = rt.obs.snapshot()
        assert {"metrics", "stats", "spans", "records"} <= set(snap)
        assert snap["stats"]["executions"] == 1
        assert json.loads(json.dumps(snap)) == snap


class TestRuntimeDelegation:
    def test_runtime_explain_delegates(self, rt):
        rt.obs.enable()
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        f()
        assert rt.explain("f").target == "f()"

    def test_runtime_inspect_delegates(self, rt):
        x = Cell(1, label="x")

        @cached
        def f():
            return x.get()

        f()
        snap = rt.inspect()
        assert {"x", "f()"} <= {n["label"] for n in snap.nodes}
