"""Runtime plumbing: activation stack, default runtime, node kinds,
the live-node set, procedure objects."""

import inspect
import threading

import pytest

from repro import Cell, Runtime, cached, get_runtime, reset_default_runtime
from repro.core.node import NO_VALUE, DepNode, NodeKind, procedure_instance_label
from repro.core.runtime import IncrementalProcedure, Location
from repro.core.strategy import parse_strategy


class TestActivation:
    def test_nested_activation(self):
        outer, inner = Runtime(), Runtime()
        with outer.active():
            assert get_runtime() is outer
            with inner.active():
                assert get_runtime() is inner
            assert get_runtime() is outer

    def test_default_runtime_is_a_singleton(self):
        default = reset_default_runtime()
        assert get_runtime() is default
        assert get_runtime() is default

    def test_activation_isolated_per_thread(self):
        rt = Runtime()
        seen = {}

        def other_thread():
            seen["runtime"] = get_runtime()

        default = reset_default_runtime()
        with rt.active():
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        assert seen["runtime"] is default  # not rt


class TestNodeBasics:
    def test_storage_nodes_start_consistent(self):
        node = DepNode(NodeKind.STORAGE, label="s")
        assert node.consistent
        assert not node.has_value()
        assert node.value is NO_VALUE

    def test_procedure_nodes_start_inconsistent(self):
        for kind in (NodeKind.DEMAND, NodeKind.EAGER):
            node = DepNode(kind, label="p")
            assert not node.consistent
            assert node.is_procedure
            assert not node.is_storage

    def test_node_ids_unique(self):
        a = DepNode(NodeKind.STORAGE)
        b = DepNode(NodeKind.STORAGE)
        assert a.node_id != b.node_id

    def test_procedure_instance_label(self):
        assert procedure_instance_label("f", ()) == "f()"
        assert procedure_instance_label("f", (1, "x")) == "f(1, 'x')"
        long_arg = "y" * 100
        label = procedure_instance_label("f", (long_arg,))
        assert len(label) < 40
        assert label.endswith("...)")


class TestGraphRegistry:
    def test_registry_enabled_by_default(self):
        rt = Runtime()
        with rt.active():
            Cell(1).set(2)

            @cached
            def f():
                return 1

            f()
        assert len(rt.graph.nodes) >= 1

    def test_registry_cannot_be_disabled(self):
        # The live-node set is always kept: checkpoints, the audit and
        # inspection read it, and disposal is what takes a node out.
        assert list(inspect.signature(Runtime).parameters) == [
            "partitioning", "strict_cycles", "max_reentry", "events",
            "containment", "watchdog", "resilience", "parallel_drains",
        ]


class TestIncrementalProcedure:
    def test_storage_strategy_rejected(self):
        with pytest.raises(ValueError):
            IncrementalProcedure(lambda: 1, strategy=NodeKind.STORAGE)

    def test_name_defaults_to_function_name(self):
        def my_function():
            return 1

        proc = IncrementalProcedure(my_function)
        assert proc.name == "my_function"

    def test_distinct_proc_ids(self):
        a = IncrementalProcedure(lambda: 1)
        b = IncrementalProcedure(lambda: 2)
        assert a.proc_id != b.proc_id

    def test_procedure_node_kind_validated(self):
        rt = Runtime()
        with pytest.raises(ValueError):
            rt.graph.new_procedure_node(NodeKind.STORAGE, "bad")


class TestStrategyParsing:
    def test_parse_known(self):
        assert parse_strategy("demand") is NodeKind.DEMAND
        assert parse_strategy(" EAGER ") is NodeKind.EAGER

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            parse_strategy("lazy")


class TestLocation:
    def test_location_defaults(self):
        loc = Location(5, "spot")
        assert loc._value == 5
        assert loc._label == "spot"
        assert loc._node is None

    def test_runtime_reads_any_location(self):
        rt = Runtime()
        with rt.active():
            loc = Location(7, "raw")
            assert rt.on_read(loc) == 7
            rt.on_modify(loc, 9)
            assert loc._value == 9


class TestTableSize:
    def test_table_size_reporting(self):
        rt = Runtime()
        with rt.active():

            @cached
            def f(x):
                return x

            assert rt.table_size(f) == 0
            f(1)
            f(2)
            assert rt.table_size(f) == 2


class TestExceptionSafety:
    def test_call_stack_restored_after_exception(self, rt):
        from repro import NodeExecutionError

        @cached
        def boom():
            raise RuntimeError("boom")

        with pytest.raises(NodeExecutionError) as excinfo:
            boom()
        assert isinstance(excinfo.value.root, RuntimeError)
        assert rt.call_stack == []

    def test_call_stack_restored_after_uncontained_exception(self):
        rt = Runtime(containment=False)
        with rt.active():

            @cached
            def boom():
                raise RuntimeError("boom")

            with pytest.raises(RuntimeError):
                boom()
            assert rt.call_stack == []

    def test_propagation_usable_after_body_exception(self, rt):
        from repro import NodeExecutionError

        cell = Cell(1, label="x")
        attempts = []

        @cached
        def fragile():
            attempts.append(1)
            value = cell.get()
            if value == 2:
                raise ValueError("can't handle 2")
            return value

        assert fragile() == 1
        cell.set(2)
        with pytest.raises(NodeExecutionError):
            fragile()
        cell.set(3)
        assert fragile() == 3  # system recovered
        assert len(attempts) == 3

    def test_eager_exception_contained_during_flush(self, rt):
        from repro import EAGER, NodeExecutionError

        cell = Cell(1, label="x")

        @cached(strategy=EAGER)
        def fragile():
            value = cell.get()
            if value < 0:
                raise ValueError("negative")
            return value

        fragile()
        cell.set(-1)
        rt.flush()  # containment: the drain completes, poisoning fragile
        with pytest.raises(NodeExecutionError):
            fragile()
        # recovery: set a good value and flush again
        cell.set(5)
        rt.flush()
        assert fragile() == 5

    def test_eager_exception_during_flush_propagates_without_containment(self):
        from repro import EAGER

        rt = Runtime(containment=False)
        with rt.active():
            cell = Cell(1, label="x")

            @cached(strategy=EAGER)
            def fragile():
                value = cell.get()
                if value < 0:
                    raise ValueError("negative")
                return value

            fragile()
            cell.set(-1)
            with pytest.raises(ValueError):
                rt.flush()
            # recovery: set a good value and flush again
            cell.set(5)
            rt.flush()
            assert fragile() == 5
