"""Tracked storage containers: Cell, TrackedObject, TrackedArray,
TrackedDict."""

import inspect

import pytest

from repro import Cell, TrackedArray, TrackedDict, TrackedObject, cached, maintained
from repro.core.cells import tracked_fields
from repro.core.errors import NotTrackedError


class TestCell:
    def test_initial_value_and_label(self, rt):
        cell = Cell(10, label="ten")
        assert cell.get() == 10
        assert cell.label == "ten"

    def test_set_get_roundtrip(self, rt):
        cell = Cell(0)
        cell.set("hello")
        assert cell.get() == "hello"

    def test_default_value_is_none(self, rt):
        assert Cell().get() is None


class TestTrackedObject:
    def test_declared_fields_readable_writable(self, rt):
        Point = tracked_fields("x", "y")
        p = Point(x=1, y=2)
        assert p.x == 1
        assert p.y == 2
        p.x = 10
        assert p.x == 10

    def test_missing_fields_default_to_none(self, rt):
        Point = tracked_fields("x", "y")
        p = Point(x=1)
        assert p.y is None

    def test_unknown_init_kwarg_rejected(self, rt):
        Point = tracked_fields("x")
        with pytest.raises(TypeError):
            Point(z=1)

    def test_unknown_attribute_raises(self, rt):
        Point = tracked_fields("x")
        p = Point()
        with pytest.raises(AttributeError):
            p.nope

    def test_non_field_attributes_untracked(self, rt):
        Point = tracked_fields("x")
        p = Point(x=1)
        p.scratch = "anything"  # plain attribute, no cell
        assert p.scratch == "anything"
        with pytest.raises(NotTrackedError):
            p.field_cell("scratch")

    def test_field_inheritance_accumulates(self, rt):
        class Base(TrackedObject):
            _fields_ = ("a",)

        class Mid(Base):
            _fields_ = ("b",)

        class Leaf(Mid):
            _fields_ = ("c",)

        assert Leaf.all_fields() == ("a", "b", "c")
        obj = Leaf(a=1, b=2, c=3)
        assert (obj.a, obj.b, obj.c) == (1, 2, 3)

    def test_all_fields_is_computed_once_per_class(self, rt):
        Built = type("Built", (tracked_fields("x", "y"),), {"_fields_": ("x", "z")})
        assert Built.all_fields() == ("x", "y", "z")
        assert Built.all_fields() is Built.all_fields()
        assert TrackedObject.all_fields() == ()

    def test_field_reads_tracked_inside_procedures(self, rt):
        Point = tracked_fields("x")
        p = Point(x=5)

        @cached
        def read_x():
            return p.x

        assert read_x() == 5
        p.x = 6
        assert read_x() == 6
        assert rt.stats.executions == 2

    def test_maintained_method_on_object(self, rt):
        class Box(TrackedObject):
            _fields_ = ("content",)

            @maintained
            def describe(self):
                return f"box({self.content})"

        box = Box(content="cat")
        assert box.describe() == "box(cat)"
        executions = rt.stats.executions
        assert box.describe() == "box(cat)"
        assert rt.stats.executions == executions
        box.content = "dog"
        assert box.describe() == "box(dog)"

    def test_method_override_dispatches_dynamically(self, rt):
        class Animal(TrackedObject):
            _fields_ = ("name",)

            @maintained
            def sound(self):
                return "..."

        class Dog(Animal):
            @maintained
            def sound(self):
                return "woof"

        generic, dog = Animal(name="x"), Dog(name="rex")
        assert generic.sound() == "..."
        assert dog.sound() == "woof"

    def test_repr_survives_cyclic_structure(self, rt):
        Node = tracked_fields("next")
        a, b = Node(), Node()
        a.next = b
        b.next = a  # cycle
        text = repr(a)
        assert "Anon" in text  # did not recurse forever


def _classes_with_fields():
    """The TrackedObject classes of the spreadsheet, of ``ag.expr``, of
    a compiled attribute grammar and of ``tracked_fields``."""
    from repro.ag import AttributeGrammar, compile_grammar
    from repro.ag import expr
    from repro.spreadsheet.model import CellExp, RangeSumExp, SheetCell

    grammar = AttributeGrammar("g")
    grammar.add_nonterminal("E", synthesized=("value",))
    grammar.production(
        name="Num", lhs="E", terminals=("n",), synthesized={"value": lambda o: o.n}
    )
    productions = [
        cls
        for cls in vars(expr).values()
        if isinstance(cls, type) and issubclass(cls, expr.Exp)
    ]
    return [
        SheetCell,
        CellExp,
        RangeSumExp,
        *productions,
        compile_grammar(grammar)["Num"],
        tracked_fields("x", "y"),
    ]


class TestFieldDescriptors:
    """Class creation turns each declared field into a data descriptor:
    the §5 transformation's access/modify, inserted once per field."""

    def test_fields_are_data_descriptors(self):
        assert not hasattr(TrackedObject, "__getattr__")
        assert TrackedObject.__setattr__ is object.__setattr__
        classes = _classes_with_fields()
        assert len(classes) == 11
        for cls in classes:
            assert cls.all_fields(), cls
            for name in cls.all_fields():
                kind = type(inspect.getattr_static(cls, name))
                assert hasattr(kind, "__get__"), (cls, name)
                assert hasattr(kind, "__set__"), (cls, name)

    @pytest.mark.parametrize(
        "namespace",
        [
            {"x": lambda self: 1},
            {"x": property(lambda self: 1)},
            {"x": maintained(lambda self: 1)},
            {"x": 3},
            {"__slots__": ("x",)},
        ],
        ids=["method", "property", "maintained", "constant", "slot"],
    )
    def test_shadowed_field_refused_at_class_creation(self, namespace):
        with pytest.raises(TypeError, match=r"Shadow: tracked field 'x'"):
            type("Shadow", (TrackedObject,), {"_fields_": ("x",), **namespace})

    def test_subclass_may_not_shadow_an_inherited_field(self):
        Point = tracked_fields("x")
        with pytest.raises(TypeError, match=r"Shadow: tracked field 'x'"):
            type("Shadow", (Point,), {"x": lambda self: 1})

    def test_redeclared_field_keeps_its_descriptor(self, rt):
        Point = tracked_fields("x")
        Again = type("Again", (Point,), {"_fields_": ("x", "y")})
        assert "x" not in vars(Again)
        obj = Again(x=1, y=2)
        obj.x = 5
        assert (obj.x, obj.y) == (5, 2)


class TestTrackedArray:
    def test_length_and_default(self, rt):
        arr = TrackedArray(5, initial=0)
        assert len(arr) == 5
        assert arr[0] == 0

    def test_set_get(self, rt):
        arr = TrackedArray(3)
        arr[1] = "x"
        assert arr[1] == "x"

    def test_out_of_range_raises(self, rt):
        arr = TrackedArray(3)
        with pytest.raises(IndexError):
            arr[3]
        with pytest.raises(IndexError):
            arr[-1] = 0

    def test_iteration(self, rt):
        arr = TrackedArray(4, initial=7)
        assert list(arr) == [7, 7, 7, 7]

    def test_element_dependency_is_per_slot(self, rt):
        arr = TrackedArray(10, initial=0)

        @cached
        def read_three():
            return arr[3]

        read_three()
        arr[7] = 99  # unrelated slot
        executions = rt.stats.executions
        assert read_three() == 0
        assert rt.stats.executions == executions  # untouched: cache hit
        arr[3] = 5
        assert read_three() == 5


class TestTrackedDict:
    def test_set_get_contains(self, rt):
        d = TrackedDict()
        d["k"] = 1
        assert d["k"] == 1
        assert "k" in d
        assert "other" not in d

    def test_missing_key_raises(self, rt):
        d = TrackedDict()
        with pytest.raises(KeyError):
            d["nope"]

    def test_get_with_default(self, rt):
        d = TrackedDict()
        assert d.get("nope", 42) == 42
        d["yes"] = 1
        assert d.get("yes", 42) == 1

    def test_delete(self, rt):
        d = TrackedDict()
        d["k"] = 1
        del d["k"]
        assert "k" not in d
        with pytest.raises(KeyError):
            del d["k"]

    def test_absence_is_a_dependency(self, rt):
        """A computation that observed a missing key must be invalidated
        when the key appears — classical memoization gets this wrong."""
        d = TrackedDict()

        @cached
        def lookup():
            return d.get("k", "absent")

        assert lookup() == "absent"
        d["k"] = "present"
        assert lookup() == "present"

    def test_deletion_invalidates_readers(self, rt):
        d = TrackedDict()
        d["k"] = 1

        @cached
        def reader():
            return d.get("k", "gone")

        assert reader() == 1
        del d["k"]
        assert reader() == "gone"

    def test_keys_and_len_track_membership(self, rt):
        d = TrackedDict()

        @cached
        def count():
            return len(d)

        assert count() == 0
        d["a"] = 1
        d["b"] = 2
        assert count() == 2
        del d["a"]
        assert count() == 1

    def test_value_overwrite_does_not_disturb_membership_readers(self, rt):
        d = TrackedDict()
        d["a"] = 1

        @cached
        def count():
            return len(d)

        assert count() == 1
        executions = rt.stats.executions
        d["a"] = 2  # same key set
        assert count() == 1
        assert rt.stats.executions == executions
