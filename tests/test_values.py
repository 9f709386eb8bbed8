"""Every value type the package exports is a value: it refuses to set or
delete an attribute, and a copy, a deep copy and a pickle round trip
each give back an equal object with an equal hash. Value types are
frozen dataclasses (or tuples and frozensets), never a class body that
writes its own __setattr__ or __delattr__."""

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
    CellMatrix,
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
    cell_nondirectional,
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
    CellMatrix: CellMatrix.build([iu((1, 2))], [iu((3, 5))], cell_nondirectional),
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
    assert len(EXAMPLES) == 15


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
    assert (twin.total, twin._scale, twin._mass_scale, twin._keys) == (
        MASS.total, MASS._scale, MASS._mass_scale, MASS._keys
    )
    assert fdist.fuzzy_from_mass(twin) == fdist.fuzzy_from_mass(MASS)


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
# guard: no hand-rolled immutability

def hand_rolled(source: str) -> list:
    """Class.method for each __setattr__ or __delattr__ a class body of
    source defines."""
    return [
        f"{node.name}.{item.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name in ("__setattr__", "__delattr__")
    ]


def test_finds_a_hand_rolled_setter():
    source = (
        "class A:\n    def __setattr__(self, n, v):\n        raise AttributeError\n"
        "class B:\n    def __delattr__(self, n):\n        pass\n"
        "def __setattr__(n, v):\n    pass\n"
    )
    assert hand_rolled(source) == ["A.__setattr__", "B.__delattr__"]


def test_no_class_writes_its_own_setattr_or_delattr():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.stem}.{name}"
        for path in modules
        for name in hand_rolled(path.read_text(encoding="utf-8"))
    ]
    assert found == []
