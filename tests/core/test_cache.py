"""Tests for argument tables and cache replacement policies (§2, §3.3)."""

import pytest

from repro.core.cache import FIFO, LRU, ArgumentTable, Unbounded
from repro.core.errors import UnhashableArgumentsError
from repro.core.node import DepNode, NodeKind


def _pnode(label="p"):
    return DepNode(NodeKind.DEMAND, label=label)


class TestArgumentTable:
    def test_find_missing_returns_none(self):
        table = ArgumentTable("f")
        assert table.find((1,)) is None

    def test_add_then_find(self):
        table = ArgumentTable("f")
        node = _pnode()
        table.add((1, 2), node)
        assert table.find((1, 2)) is node
        assert table.find((2, 1)) is None
        assert len(table) == 1

    def test_zero_arity_key(self):
        table = ArgumentTable("f")
        node = _pnode()
        table.add((), node)
        assert table.find(()) is node

    def test_unhashable_arguments_raise(self):
        table = ArgumentTable("f")
        with pytest.raises(UnhashableArgumentsError):
            table.find(([1, 2],))
        with pytest.raises(UnhashableArgumentsError):
            table.add(([1, 2],), _pnode())

    def test_unbounded_never_evicts(self):
        table = ArgumentTable("f", policy=Unbounded())
        for i in range(100):
            assert table.add((i,), _pnode(f"p{i}")) == []
        assert len(table) == 100

    def test_clear_invokes_on_evict(self):
        evicted = []
        table = ArgumentTable("f", on_evict=evicted.append)
        nodes = [_pnode(f"p{i}") for i in range(3)]
        for i, node in enumerate(nodes):
            table.add((i,), node)
        table.clear()
        assert len(table) == 0
        assert len(evicted) == 3


class TestFIFO:
    def test_oldest_evicted_first(self):
        evicted = []
        table = ArgumentTable("f", policy=FIFO(2), on_evict=evicted.append)
        n0, n1, n2 = _pnode("p0"), _pnode("p1"), _pnode("p2")
        table.add((0,), n0)
        table.add((1,), n1)
        table.add((2,), n2)
        assert [n.label for n in evicted] == ["p0"]
        assert table.find((0,)) is None
        assert table.find((1,)) is n1
        assert table.find((2,)) is n2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FIFO(0)

    def test_entries_with_dependents_are_retained(self):
        # An entry some computation depends on (has successors) must not
        # be evicted even when the table is over capacity.
        evicted = []
        table = ArgumentTable("f", policy=FIFO(1), on_evict=evicted.append)
        pinned = _pnode("pinned")
        dependent = _pnode("dep")
        pinned.succ[dependent] = None  # edge pinned -> dependent
        dependent.pred[pinned] = None
        table.add((0,), pinned)
        table.add((1,), _pnode("p1"))
        table.add((2,), _pnode("p2"))
        assert all(e.label != "pinned" for e in evicted)
        assert table.find((0,)) is pinned


class TestLRU:
    def test_least_recently_used_evicted(self):
        evicted = []
        table = ArgumentTable("f", policy=LRU(2), on_evict=evicted.append)
        n0, n1 = _pnode("p0"), _pnode("p1")
        table.add((0,), n0)
        table.add((1,), n1)
        table.find((0,))  # touch p0: p1 is now least recent
        table.add((2,), _pnode("p2"))
        assert [n.label for n in evicted] == ["p1"]
        assert table.find((0,)) is n0
        assert table.find((1,)) is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRU(-1)

    def test_repeated_hits_keep_entry_alive(self):
        evicted = []
        table = ArgumentTable("f", policy=LRU(3), on_evict=evicted.append)
        hot = _pnode("hot")
        table.add(("hot",), hot)
        for i in range(10):
            table.add((i,), _pnode(f"p{i}"))
            table.find(("hot",))
        assert table.find(("hot",)) is hot
        assert all(e.label != "hot" for e in evicted)

    def test_executing_entries_not_evicted(self):
        evicted = []
        table = ArgumentTable("f", policy=LRU(1), on_evict=evicted.append)
        running = _pnode("running")
        running.executing = 1
        table.add((0,), running)
        table.add((1,), _pnode("p1"))
        assert all(e.label != "running" for e in evicted)
        assert table.find((0,)) is running
