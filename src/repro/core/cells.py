"""Tracked storage containers (paper Sections 3.1 and 4.3).

The paper instruments every top-level abstract storage location with a
``nodeptr`` field relating it to its dependency-graph node.  In the
Python embedding, tracked storage is explicit: values live in
:class:`Cell` objects (one abstract location each), and the composite
containers below build on cells:

* :class:`TrackedObject` — the paper's OBJECT types: declared data and
  pointer fields, read/written as ordinary attributes, each backed by a
  cell.  Each declared field becomes a data descriptor on its class when
  the class is created — the §5 transformation's ``access``/``modify``
  inserted once per field rather than rediscovered on every read — and
  a field whose name the class already binds to anything else is
  refused with ``TypeError``.  Methods (including maintained methods)
  are ordinary class attributes, mirroring "procedures and data
  associated in an object oriented style".
* :class:`TrackedArray` — a fixed-length array of cells (the paper's
  arrays, e.g. the spreadsheet's ``cells : ARRAY [1..100],[1..100]``).
* :class:`TrackedDict` — a keyed map where *absence* of a key is tracked
  too, so a computation that looked up a missing key is invalidated when
  the key appears.

All reads route through ``Runtime.on_read`` (Algorithm 3) and all writes
through ``Runtime.on_modify`` (Algorithm 4) of the currently active
runtime, which :func:`~repro.core.runtime.get_runtime` resolves at each
read or write.  A tracked container should be used under a single
runtime for its lifetime; mixing runtimes over one container is
unsupported (the cell's dependency node belongs to the runtime that
created it).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Iterator, List, Tuple, Type

from .errors import NotTrackedError
from .node import PREFIX_REPRS
from .runtime import Location, get_runtime

#: Sentinel stored in a TrackedDict cell whose key is absent.
MISSING = object()


class Cell(Location):
    """A single tracked abstract storage location."""

    __slots__ = ()

    def __init__(self, value: Any = None, label: str = "cell") -> None:
        super().__init__(value, label)

    def get(self) -> Any:
        """Tracked read (Algorithm 3)."""
        return get_runtime().on_read(self)

    def set(self, value: Any) -> None:
        """Tracked write (Algorithm 4)."""
        get_runtime().on_modify(self, value)

    def peek(self) -> Any:
        """Untracked read — no dependency edge, no access count.

        For debugging and test assertions only; using ``peek`` inside a
        maintained procedure forfeits the correctness guarantee exactly
        like an (*UNCHECKED*) region would.
        """
        return self._value

    @property
    def label(self) -> str:
        return self._label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cell({self._label}={self._value!r})"


class _Field:
    """The data descriptor of one declared field: a read is ``access``
    (Algorithm 3) and a write ``modify`` (Algorithm 4) on the instance's
    cell, under the runtime active at that moment."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, obj: Any, owner: Any = None) -> Any:
        if obj is None:
            return self
        return get_runtime().on_read(obj._cells[self.name])

    def __set__(self, obj: Any, value: Any) -> None:
        get_runtime().on_modify(obj._cells[self.name], value)


class TrackedObject:
    """Base class for Alphonse OBJECT types.

    Subclasses declare their data/pointer fields in ``_fields_`` (a tuple
    of names, inherited cumulatively through the MRO) and may pass
    initial values as keyword arguments.  Class creation installs one
    data descriptor per declared field, so field reads and writes are
    tracked and non-field attributes behave normally.  A field whose
    name the class (or a base) already binds to something else — a
    method, property, slot or constant — would be unreadable, so class
    creation raises ``TypeError`` naming the class and the field.

    Example (the paper's Algorithm 1 Tree type)::

        class Tree(TrackedObject):
            _fields_ = ("left", "right")

            @maintained
            def height(self):
                return max(self.left.height(), self.right.height()) + 1
    """

    _fields_: Tuple[str, ...] = ()
    #: :meth:`all_fields`, computed once per class.
    _all_fields_: Tuple[str, ...] = ()

    # One dict per instance would dominate the footprint of fine-grained
    # object graphs (a tracked tree node is mostly its cells).  Subclasses
    # that want ad-hoc untracked attributes simply omit __slots__ and get
    # a __dict__ of their own; the base stays lean.
    __slots__ = ("_cells", "__weakref__")

    def __init_subclass__(cls, **kwargs: Any) -> None:
        # Runs for classes built with type(...) too (the attribute
        # grammar's productions, tracked_fields).
        super().__init_subclass__(**kwargs)
        seen: List[str] = []
        for klass in reversed(cls.__mro__):
            for name in getattr(klass, "_fields_", ()):
                if name not in seen:
                    seen.append(name)
        cls._all_fields_ = tuple(seen)
        for name in seen:
            owner = next((k for k in cls.__mro__ if name in vars(k)), None)
            if owner is None:
                setattr(cls, name, _Field(name))
                continue
            bound = vars(owner)[name]
            if type(bound) is not _Field:
                raise TypeError(
                    f"{cls.__name__}: tracked field {name!r} is shadowed by "
                    f"{owner.__name__}.{name} ({type(bound).__name__})"
                )

    def __init__(self, **field_values: Any) -> None:
        fields = type(self)._all_fields_
        cells: Dict[str, Cell] = {}
        cls_name = type(self).__name__
        for name in fields:
            initial = field_values.pop(name, None)
            cells[name] = Cell(initial, label=f"{cls_name}.{name}")
        if field_values:
            unknown = ", ".join(sorted(field_values))
            raise TypeError(f"{cls_name} has no tracked field(s): {unknown}")
        self._cells = cells

    @classmethod
    def all_fields(cls) -> Tuple[str, ...]:
        """Every tracked field declared by this class and its bases,
        base-class fields first."""
        return cls._all_fields_

    def field_cell(self, name: str) -> Cell:
        """The underlying cell for field ``name`` (diagnostics)."""
        try:
            return self._cells[name]
        except KeyError:
            raise NotTrackedError(
                f"{type(self).__name__} has no tracked field {name!r}"
            ) from None

    def __repr__(self) -> str:
        return _repr_prefix(self)


class TrackedArray:
    """A fixed-length tracked array; indices 0..n-1.

    Out-of-range indexing raises IndexError like a list (no negative
    indices — abstract locations are positional, not relative).
    """

    __slots__ = ("_items", "_label")

    def __init__(
        self, length: int, initial: Any = None, label: str = "array"
    ) -> None:
        if length < 0:
            raise ValueError("length must be >= 0")
        self._label = label
        self._items: List[Cell] = [
            Cell(initial, label=f"{label}[{i}]") for i in range(length)
        ]

    def __len__(self) -> int:
        return len(self._items)

    def _cell(self, index: int) -> Cell:
        if not isinstance(index, int) or index < 0 or index >= len(self._items):
            raise IndexError(f"{self._label}: index {index!r} out of range")
        return self._items[index]

    def __getitem__(self, index: int) -> Any:
        return self._cell(index).get()

    def __setitem__(self, index: int, value: Any) -> None:
        self._cell(index).set(value)

    def cell(self, index: int) -> Cell:
        """The underlying cell at ``index`` (diagnostics)."""
        return self._cell(index)

    def __iter__(self) -> Iterator[Any]:
        for cell in self._items:
            yield cell.get()


class TrackedDict:
    """A tracked map whose key *absence* is also a dependency.

    Reading a missing key returns ``default`` (or raises KeyError) but
    still records a dependency on that key, so inserting the key later
    correctly invalidates computations that observed its absence.
    Deleting a key writes the MISSING sentinel rather than dropping the
    cell, for the same reason.
    """

    __slots__ = ("_cells", "_label", "_key_list")

    def __init__(self, label: str = "dict") -> None:
        self._cells: Dict[Any, Cell] = {}
        self._label = label
        #: Tracks the set of present keys as a dependency of iteration.
        self._key_list = Cell((), label=f"{label}.keys")

    def _cell_for(self, key: Any) -> Cell:
        cell = self._cells.get(key)
        if cell is None:
            cell = Cell(MISSING, label=f"{self._label}[{key!r}]")
            self._cells[key] = cell
        return cell

    def __contains__(self, key: Any) -> bool:
        return self._cell_for(key).get() is not MISSING

    def __getitem__(self, key: Any) -> Any:
        value = self._cell_for(key).get()
        if value is MISSING:
            raise KeyError(key)
        return value

    def get(self, key: Any, default: Any = None) -> Any:
        value = self._cell_for(key).get()
        return default if value is MISSING else value

    def __setitem__(self, key: Any, value: Any) -> None:
        was_present = self._cell_for(key).peek() is not MISSING
        self._cell_for(key).set(value)
        if not was_present:
            self._refresh_keys()

    def __delitem__(self, key: Any) -> None:
        cell = self._cell_for(key)
        if cell.peek() is MISSING:
            raise KeyError(key)
        cell.set(MISSING)
        self._refresh_keys()

    def _refresh_keys(self) -> None:
        present = tuple(
            sorted(
                (k for k, c in self._cells.items() if c.peek() is not MISSING),
                key=repr,
            )
        )
        self._key_list.set(present)

    def keys(self) -> Tuple[Any, ...]:
        """Present keys, as a tracked read (iteration dependency)."""
        return self._key_list.get()

    def __len__(self) -> int:
        return len(self.keys())


class TrackedList:
    """A growable tracked sequence.

    Element slots are cells; the *length* is itself a tracked cell, so a
    computation that iterated or took ``len()`` is invalidated by
    appends/pops even when the surviving elements are unchanged.
    Negative indices are supported (resolved against the current length,
    which is a tracked read).
    """

    __slots__ = ("_items", "_length", "_label")

    def __init__(self, iterable: Iterable[Any] = (), label: str = "list") -> None:
        self._label = label
        self._items: List[Cell] = [
            Cell(value, label=f"{label}[{i}]")
            for i, value in enumerate(iterable)
        ]
        self._length = Cell(len(self._items), label=f"{label}.len")

    def __len__(self) -> int:
        return self._length.get()

    def _resolve(self, index: int) -> int:
        length = self._length.get()
        if index < 0:
            index += length
        if not (0 <= index < length):
            raise IndexError(f"{self._label}: index out of range")
        return index

    def __getitem__(self, index: int) -> Any:
        return self._items[self._resolve(index)].get()

    def __setitem__(self, index: int, value: Any) -> None:
        self._items[self._resolve(index)].set(value)

    def append(self, value: Any) -> None:
        slot = len(self._items)
        self._items.append(Cell(value, label=f"{self._label}[{slot}]"))
        self._length.set(slot + 1)

    def pop(self) -> Any:
        current = self._length.peek()
        if current == 0:
            raise IndexError(f"{self._label}: pop from empty list")
        value = self._items[current - 1].get()
        # Every positional read resolved the tracked length first, so
        # shrinking it is the change that invalidates readers of the
        # removed slot; the cell itself can then be dropped.
        self._length.set(current - 1)
        self._items.pop()
        return value

    def __iter__(self) -> Iterator[Any]:
        length = self._length.get()
        for i in range(length):
            yield self._items[i].get()

    def snapshot(self) -> List[Any]:
        """Untracked copy of the current contents (tests/diagnostics)."""
        return [cell.peek() for cell in self._items[: self._length.peek()]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrackedList({self.snapshot()!r})"


def _repr_prefix(obj: TrackedObject, length: float = math.inf) -> str:
    """``repr(obj)``, or a prefix of it longer than ``length`` characters
    that stops before the next field value (a node label keeps only 24).

    Deliberately shallow: tracked structures are routinely cyclic (tree
    rotations create transient parent/child cycles), so field values
    are rendered as type names, never recursively.  An object an
    application named with a ``_persist_key`` (a spreadsheet formula
    node, say) renders as that name alone, without its address: the
    name says where it lives, e.g. ``IntExp(sheet:R0C0.func@0.exp)``.
    """
    key = getattr(obj, "_persist_key", None)
    if isinstance(key, str):
        return f"{type(obj).__name__}({key})"
    text = f"{type(obj).__name__}@{id(obj):x}("
    for i, (name, cell) in enumerate(obj._cells.items()):
        text += f"{', ' if i else ''}{name}="
        if len(text) > length:
            return text
        text += _shallow(cell.peek())
    return text + ")"


PREFIX_REPRS[TrackedObject.__repr__] = _repr_prefix


def _shallow(value: Any) -> str:
    """Non-recursive rendering of a field value for repr/labels."""
    if isinstance(value, TrackedObject):
        return f"{type(value).__name__}@{id(value):x}"
    text = repr(value)
    return text if len(text) <= 32 else text[:29] + "..."


def tracked_fields(*names: str) -> Type[TrackedObject]:
    """Build an anonymous TrackedObject subclass with the given fields.

    Convenience for tests and quick scripts::

        Point = tracked_fields("x", "y")
        p = Point(x=1, y=2)
    """
    return type("Anon", (TrackedObject,), {"_fields_": tuple(names)})
