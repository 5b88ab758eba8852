"""Slot coverage of the hot per-node object population.

A graph of N procedures carries O(N) DepNodes, partition items, and
cells (edges are dict entries on the nodes, not objects); one stray
``__dict__`` per instance multiplies the engine's footprint.  These
tests pin the invariant structurally — every class on the per-node hot
path declares ``__slots__`` and its instances carry no ``__dict__`` —
so a future field added without a slot fails here instead of silently
regressing memory.
"""

import pytest

from repro.core.cells import (
    Cell,
    TrackedArray,
    TrackedDict,
    TrackedList,
    TrackedObject,
)
from repro.core.node import DepNode, Poisoned
from repro.core.partition import InconsistentSet, PartitionScheduler, _Item
from repro.core.runtime import Location, _Ctx, _Frame
from repro.core.stats import RuntimeStats
from repro.core.watchdog import DrainBudget, Watchdog

#: Every class whose instance count scales with graph size (or with
#: drain concurrency, for the scheduling-context classes).
HOT_CLASSES = [
    DepNode,
    Poisoned,
    Cell,
    Location,
    TrackedObject,
    TrackedArray,
    TrackedDict,
    TrackedList,
    _Item,
    InconsistentSet,
    PartitionScheduler,
    _Frame,
    _Ctx,
    Watchdog,
    DrainBudget,
    RuntimeStats,
]


@pytest.mark.parametrize("cls", HOT_CLASSES, ids=lambda c: c.__name__)
def test_declares_slots_everywhere(cls):
    """__slots__ must appear in the class and every non-object base:
    one slotless link in the MRO silently reintroduces __dict__."""
    for klass in cls.__mro__:
        if klass is object:
            continue
        assert "__slots__" in vars(klass), (
            f"{cls.__name__}: base {klass.__name__} lacks __slots__"
        )


@pytest.mark.parametrize("cls", HOT_CLASSES, ids=lambda c: c.__name__)
def test_instances_carry_no_dict(cls):
    """The structural ground truth: the type allocates no __dict__
    (checked via the type's dictoffset, without instantiating)."""
    assert not hasattr(cls, "__dictoffset__") or cls.__dictoffset__ == 0, (
        f"{cls.__name__} instances carry a __dict__"
    )


def test_misspelled_counter_raises():
    """Counters are bumped by plain attribute increments in the kernel;
    a typo there must fail loudly, not count into a new attribute."""
    stats = RuntimeStats()
    with pytest.raises(AttributeError):
        stats.executoins += 1


def test_tracked_object_instances_have_no_dict():
    class Point(TrackedObject):
        __slots__ = ()
        _fields_ = ("x", "y")

    p = Point(x=1, y=2)
    with pytest.raises(AttributeError):
        object.__getattribute__(p, "__dict__")


def test_tracked_object_subclass_may_opt_back_in():
    """Subclasses that omit __slots__ regain a __dict__ for untracked
    attributes (the spreadsheet example stores row/col this way)."""

    class Labelled(TrackedObject):
        _fields_ = ("value",)

        def __init__(self, tag, **fields):
            super().__init__(**fields)
            self.tag = tag  # untracked, lands in the subclass __dict__

    obj = Labelled("a", value=1)
    assert obj.tag == "a"
    assert obj.__dict__ == {"tag": "a"}
