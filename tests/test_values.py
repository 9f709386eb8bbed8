"""Every value type the package exports is a value: it refuses to set or
delete an attribute, and a copy, a deep copy and a pickle round trip
each give back an equal object with an equal hash. Value types are
frozen dataclasses (or tuples and frozensets), never a class body that
writes its own __setattr__ or __delattr__, and the one hand-written
equality is mass._Keyed's, shared by every value held as keys."""

import ast
import copy
import dataclasses
import pickle
from enum import Enum
from fractions import Fraction
from pathlib import Path

import pytest

import fdist
from fdist import (
    Density,
    DiscreteFuzzySet,
    DistanceResult,
    Interval,
    IntervalUnion,
    LabelSet,
    MassAssignment,
    NumericFuzzySet,
    PiecewiseShape,
    Restriction,
    RestrictionKind,
    SlicedAssignment,
    SpecSet,
    Step,
    TruthAssignment,
    TruthLabel,
    distance,
    iu,
    least_prejudiced,
    slice_shape,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "fdist"

H = Fraction(1, 2)
TRIANGLE = PiecewiseShape([(1, 0), (3, 1), (5, 0)])
MASS = MassAssignment([(iu((1, 5)), H), (iu((2, 4)), Fraction(1, 3)), (iu(), Fraction(1, 6))])

EXAMPLES = {
    Density: least_prejudiced(MASS),
    DiscreteFuzzySet: DiscreteFuzzySet({"a": 1, "b": H}),
    DistanceResult: distance(TRIANGLE, TRIANGLE, n_slices=2),
    Interval: Interval(H, 3),
    IntervalUnion: iu((0, 1), (2, 3)),
    LabelSet: LabelSet({"a", "b"}),
    MassAssignment: MASS,
    NumericFuzzySet: fdist.fuzzy_from_mass(MASS),
    PiecewiseShape: TRIANGLE,
    Restriction: Restriction(RestrictionKind.TYPE1, iu((1, 9)), iu((3, 7)), H),
    SlicedAssignment: slice_shape(TRIANGLE, 2),
    SpecSet: SpecSet("a", "shape", TRIANGLE, 4),
    Step: Step(Fraction(0), Fraction(1), H, True, False),
    TruthAssignment: TruthAssignment({TruthLabel.TRUE: H, TruthLabel.BOTH: H}),
}


def exported_value_types() -> list:
    """The classes in fdist.__all__ that are neither enums nor exceptions."""
    classes = [getattr(fdist, name) for name in fdist.__all__]
    return [
        c for c in classes
        if isinstance(c, type) and not issubclass(c, (Enum, BaseException))
    ]


def field_names(value) -> list:
    """The names a value stores: its dataclass fields, tuple fields or
    slots, or a fresh name for a frozenset."""
    if dataclasses.is_dataclass(value):
        return [f.name for f in dataclasses.fields(value)]
    return list(getattr(value, "_fields", ()) or getattr(value, "__slots__", ()) or ["extra"])


def test_every_exported_value_type_has_an_example():
    assert set(exported_value_types()) == set(EXAMPLES)
    assert len(EXAMPLES) == 14


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda c: c.__name__)
def test_refuses_setting_and_deleting_attributes(cls):
    value = EXAMPLES[cls]
    before = hash(value)
    for name in field_names(value):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert hash(value) == before


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda c: c.__name__)
@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_to_an_equal_value(cls, clone):
    value = EXAMPLES[cls]
    twin = clone(value)
    assert type(twin) is cls
    assert twin == value
    assert hash(twin) == hash(value)
    assert repr(twin) == repr(value)


def test_mass_assignment_copies_keep_their_keys():
    twin = pickle.loads(pickle.dumps(MASS))
    assert (twin._scale, twin._mass_scale, twin._keys) == (
        MASS._scale, MASS._mass_scale, MASS._keys
    )
    assert fdist.fuzzy_from_mass(twin) == fdist.fuzzy_from_mass(MASS)


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
def test_lazy_stacks_copy_and_compare_as_values(clone, read_first):
    # slice_shape keeps a stack as keys and builds its slices on first
    # read; the copies are equal values either way, and so is the stack
    # rebuilt from its slices, though its keys sit on another scale
    shape = PiecewiseShape([(0, 0), (1, 1), (Fraction(3, 2), H), (2, 1), (3, 0)])
    stack = slice_shape(shape, 3)
    if read_first:
        stack.slices
    twin = clone(stack)
    assert type(twin) is SlicedAssignment
    assert (twin._view is None) is not read_first
    assert twin == stack and hash(twin) == hash(stack) and repr(twin) == repr(stack)
    rebuilt = SlicedAssignment(stack.slices)
    assert rebuilt._scale != stack._scale
    assert rebuilt == stack == twin and hash(rebuilt) == hash(stack)
    assert twin.to_mass() == rebuilt.to_mass() == stack.to_mass()
    assert twin.reversed_levels() == rebuilt.reversed_levels()


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
def test_lazy_results_copy_and_compare_as_values(clone, read_first):
    # a distance result keeps its mass assignment and fuzzy set as keys and
    # builds entries and steps on first read, as a label assignment builds
    # its entries; the copies are equal values either way, and so are the
    # values rebuilt from entries and steps
    result = distance(TRIANGLE, PiecewiseShape([(0, 0), (Fraction(7, 3), 1), (4, 0)]), n_slices=3)
    m, f = result.mass, result.fuzzy
    labels = fdist.mass_from_discrete(DiscreteFuzzySet({"a": 1, "b": H, "c": Fraction(1, 3)}))
    if read_first:
        m.entries, f.steps, labels.entries
    twins = clone(m), clone(f), clone(result), clone(labels)
    assert (twins[0]._view is None, twins[1]._view is None, twins[3]._view is None) == (
        (not read_first,) * 3)
    for twin, value in zip(twins, (m, f, result, labels)):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
    rebuilt_m, rebuilt_f = MassAssignment(m.entries), NumericFuzzySet(f.steps)
    assert rebuilt_m == twins[0] and hash(rebuilt_m) == hash(m)
    assert rebuilt_f == twins[1] and hash(rebuilt_f) == hash(f)
    rebuilt_labels = MassAssignment(labels.entries)
    assert rebuilt_labels == twins[3] and hash(rebuilt_labels) == hash(labels)
    assert [type(g) for g, _ in twins[3].entries] == [LabelSet] * 3
    assert (len(twins[0]), twins[0].empty_mass) == (len(m), m.empty_mass)
    assert sum(mass for _, mass in twins[0].entries) == 1
    assert fdist.fuzzy_from_mass(twins[0]) == f
    # given steps are kept as given: integer fields stay integers
    assert NumericFuzzySet([Step(0, 1, 1)]).steps == ((0, 1, 1, False, False),)
    assert type(NumericFuzzySet([Step(0, 1, 1)]).steps[0].lo) is int


def test_a_stack_never_equals_a_mass_assignment():
    # [0,4]:1/2 under [1,3]:1/2 is already in key order, so the stack's
    # slices and its merged entries are one tuple; the values still differ
    stack = SlicedAssignment([(iu((0, 4)), H), (iu((1, 3)), H)])
    m = stack.to_mass()
    assert stack.slices == m.entries
    assert stack != m and m != stack


def test_label_set_repr_does_not_depend_on_insertion_order():
    # 40 labels inserted in two orders make frozensets that iterate
    # differently under any hash seed; the repr lists the labels sorted
    labels = [f"label{k}" for k in range(40)]
    forward, backward = LabelSet(labels), LabelSet(reversed(labels))
    assert forward == backward
    assert repr(forward) == repr(backward) == f"LabelSet({sorted(labels)!r})"


def test_truth_masses_are_read_only():
    t = EXAMPLES[TruthAssignment]
    with pytest.raises(TypeError):
        t.masses[TruthLabel.FALSE] = 7
    assert t[TruthLabel.FALSE] == 0
    assert list(t.masses) == list(TruthLabel)
    assert t == TruthAssignment({"t": H, "ft": H})
    assert hash(t) == hash(TruthAssignment({"t": H, "ft": H}))


# ---------------------------------------------------------------------------
# guard: no hand-rolled immutability or equality

def hand_rolled(source: str, methods=("__setattr__", "__delattr__")) -> list:
    """Class.method for each of methods a class body of source defines."""
    return [
        f"{node.name}.{item.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name in methods
    ]


def written_in_package(methods) -> list:
    """module.Class.method for each of methods a class body under src/fdist
    defines."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    return [
        f"{path.stem}.{name}"
        for path in modules
        for name in hand_rolled(path.read_text(encoding="utf-8"), methods)
    ]


def test_finds_a_hand_rolled_setter():
    source = (
        "class A:\n    def __setattr__(self, n, v):\n        raise AttributeError\n"
        "class B:\n    def __delattr__(self, n):\n        pass\n"
        "def __setattr__(n, v):\n    pass\n"
        "class C:\n    def __eq__(self, other):\n        return True\n"
    )
    assert hand_rolled(source) == ["A.__setattr__", "B.__delattr__"]
    assert hand_rolled(source, ("__eq__", "__hash__")) == ["C.__eq__"]


def test_no_class_writes_its_own_setattr_or_delattr():
    assert written_in_package(("__setattr__", "__delattr__")) == []


def test_keyed_is_the_one_class_that_writes_equality():
    # MassAssignment, SlicedAssignment and NumericFuzzySet compare and hash
    # their views through the one base they share
    assert written_in_package(("__eq__", "__hash__")) == [
        "mass._Keyed.__eq__", "mass._Keyed.__hash__"
    ]
