"""The pragma surface: @maintained, @cached, unchecked(), strategies,
cache policies."""

from repro import (
    Cell,
    EAGER,
    LRU,
    Runtime,
    TrackedObject,
    cached,
    maintained,
    unchecked,
)
from repro.core.decorators import MaintainedMethod
from repro.core.runtime import IncrementalProcedure


class TestCachedDecorator:
    def test_bare_decorator(self, rt):
        @cached
        def f(x):
            return x + 1

        assert isinstance(f, IncrementalProcedure)
        assert f.name == "f"
        assert f(1) == 2

    def test_decorator_with_arguments(self, rt):
        @cached(strategy=EAGER, policy=lambda: LRU(4))
        def f(x):
            return x * 2

        assert f.strategy is EAGER
        assert f(2) == 4

    def test_wraps_preserves_metadata(self, rt):
        @cached
        def documented(x):
            """Doubles x."""
            return x * 2

        assert documented.__doc__ == "Doubles x."
        assert documented.__name__ == "documented"

    def test_lru_policy_bounds_table(self, rt):
        @cached(policy=lambda: LRU(3))
        def f(x):
            return x * 2

        for i in range(10):
            f(i)
        assert rt.table_size(f) <= 3
        assert rt.stats.cache_evictions == 7

    def test_evicted_entry_recomputes(self, rt):
        runs = []

        @cached(policy=lambda: LRU(1))
        def f(x):
            runs.append(x)
            return x

        f(1)
        f(2)  # evicts 1
        f(1)  # recomputes
        assert runs == [1, 2, 1]

    def test_bounded_table_never_evicts_the_entry_being_added(self, rt):
        """Each chooser pins the entry it called, so the entry a call
        adds is the only one a full table could evict: it must survive
        to run, whether a caller links it or, at top level, none does."""

        @cached(policy=lambda: LRU(2))
        def leaf(i):
            return i * 10

        @cached(strategy=EAGER)
        def chooser(j):
            return leaf(j)

        assert [chooser(j) for j in range(8)] == [10 * j for j in range(8)]
        assert rt.table_size(leaf) == 8
        assert leaf(99) == 990
        assert rt.stats.cache_evictions == 0
        assert leaf(100) == 1000  # evicts leaf(99): nothing pins it
        assert rt.stats.cache_evictions == 1
        assert rt.node_for(leaf, (99,)) is None
        assert rt.check_invariants() == []

    def test_per_runtime_isolation(self):
        runs = []

        @cached
        def f(x):
            runs.append(x)
            return x

        rt1, rt2 = Runtime(), Runtime()
        with rt1.active():
            f(1)
        with rt2.active():
            f(1)  # separate table: runs again
        assert runs == [1, 1]

    def test_default_runtime_used_outside_activation(self):
        from repro import reset_default_runtime

        default = reset_default_runtime()

        @cached
        def f():
            return 5

        assert f() == 5
        assert default.stats.executions == 1


class TestMaintainedDecorator:
    def test_descriptor_protocol(self, rt):
        class T(TrackedObject):
            _fields_ = ("v",)

            @maintained
            def get_v(self):
                return self.v

        assert isinstance(T.__dict__["get_v"], MaintainedMethod)
        t = T(v=3)
        assert t.get_v() == 3

    def test_qualified_name_in_labels(self, rt):
        class Widget(TrackedObject):
            _fields_ = ("v",)

            @maintained
            def size(self):
                return self.v

        w = Widget(v=1)
        w.size()
        bound = w.size
        node = bound.node_for()
        assert node is not None
        assert "Widget.size" in node.label

    def test_per_instance_caching(self, rt):
        runs = []

        class T(TrackedObject):
            _fields_ = ("v",)

            @maintained
            def get(self):
                runs.append(id(self))
                return self.v

        a, b = T(v=1), T(v=2)
        assert a.get() == 1
        assert b.get() == 2
        assert a.get() == 1  # hit
        assert len(runs) == 2

    def test_method_with_arguments(self, rt):
        class T(TrackedObject):
            _fields_ = ("v",)

            @maintained
            def plus(self, k):
                return self.v + k

        t = T(v=10)
        assert t.plus(1) == 11
        assert t.plus(2) == 12
        executions = rt.stats.executions
        assert t.plus(1) == 11  # per-(instance, args) cache
        assert rt.stats.executions == executions

    def test_unbound_invocation(self, rt):
        class T(TrackedObject):
            _fields_ = ("v",)

            @maintained
            def get(self):
                return self.v

        t = T(v=9)
        assert T.get(t) == 9

    def test_maintained_with_strategy_argument(self, rt):
        class T(TrackedObject):
            _fields_ = ("v",)

            @maintained(strategy=EAGER)
            def get(self):
                return self.v

        t = T(v=1)
        assert t.get() == 1
        t.v = 2
        rt.flush()  # eager: updated during propagation
        executions = rt.stats.executions
        assert t.get() == 2
        assert rt.stats.executions == executions


class TestUnchecked:
    def test_unchecked_reads_create_no_edges(self, rt):
        cell = Cell(1, label="x")

        @cached
        def reader():
            with unchecked():
                return cell.get()

        assert reader() == 1
        assert rt.stats.edges_created == 0
        assert rt.stats.unchecked_suppressions == 1

    def test_unchecked_value_not_invalidated(self, rt):
        """The programmer asserted independence; a change to unchecked-
        read storage must NOT re-run the procedure (that is the point —
        and the risk — of §6.4)."""
        cell = Cell(1, label="x")

        @cached
        def reader():
            with unchecked():
                return cell.get()

        assert reader() == 1
        cell.set(99)
        assert reader() == 1  # stale by design

    def test_unchecked_writes_still_tracked(self, rt):
        target = Cell(0, label="t")
        source = Cell(5, label="s")

        @cached
        def observer():
            return target.get()

        observer()

        @cached
        def writer():
            with unchecked():
                target.set(source.get())
            return None

        writer()
        # the write itself must still invalidate observers
        assert observer() == 5

    def test_nested_unchecked_regions(self, rt):
        a, b = Cell(1, label="a"), Cell(2, label="b")

        @cached
        def reader():
            with unchecked():
                with unchecked():
                    x = a.get()
                y = b.get()  # still inside outer region
            return x + y

        assert reader() == 3
        assert rt.stats.edges_created == 0

    def test_reads_after_region_are_tracked_again(self, rt):
        a, b = Cell(1, label="a"), Cell(2, label="b")

        @cached
        def reader():
            with unchecked():
                x = a.get()
            return x + b.get()

        assert reader() == 3
        assert rt.stats.edges_created == 1  # only b
        b.set(10)
        assert reader() == 11
