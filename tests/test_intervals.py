import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdist.intervals import (
    EMPTY,
    Interval,
    IntervalUnion,
    as_fraction,
    format_fraction,
    iu,
)
from helpers import frac, interval_unions

F = Fraction


def test_interval_rejects_reversed_endpoints():
    with pytest.raises(ValueError):
        Interval(2, 1)


def test_degenerate_point_interval_allowed():
    p = Interval(2, 2)
    assert p.length == 0
    assert p.contains(2)


def test_canonical_merges_overlap_and_touch():
    assert iu((4, 8), (1, 5)) == iu((1, 8))
    assert iu((1, 2), (2, 3)) == iu((1, 3))
    assert iu((1, 2), (4, 5)).parts == (Interval(1, 2), Interval(4, 5))
    assert iu((1, 5), (2, 4)) == iu((1, 5))
    assert iu((3, 4), (1, 2), (3, 4)) == iu((1, 2), (3, 4))


def test_empty_union():
    assert iu().is_empty
    assert iu() == EMPTY
    assert EMPTY.length == 0
    assert not EMPTY.contains_point(0)


def test_point_merging_into_neighbour():
    assert iu((1, 2), (2, 2)) == iu((1, 2))
    assert iu((3, 3), (1, 2)).parts == (Interval(1, 2), Interval(3, 3))


def test_subset_and_superset():
    assert iu((2, 4)).issubset(iu((1, 5)))
    assert not iu((1, 5)).issubset(iu((2, 4)))
    assert iu((1, 2), (4, 5)).issubset(iu((0, 6)))
    assert not iu((1, 3)).issubset(iu((1, 2), (4, 5)))
    assert EMPTY.issubset(iu((1, 2)))
    assert iu((1, 2)).issuperset(EMPTY)
    assert EMPTY.issubset(EMPTY)


def test_intersects():
    assert iu((1, 5)).intersects(iu((5, 9)))
    assert not iu((1, 4)).intersects(iu((6, 9)))
    assert iu((1, 2), (4, 5)).intersects(iu((3, 4)))
    assert not EMPTY.intersects(iu((1, 2)))


def test_union_and_intersection():
    assert iu((1, 7)).union(iu((3, 9))) == iu((1, 9))
    assert iu((1, 7)).intersection(iu((3, 9))) == iu((3, 7))
    assert iu((1, 2), (4, 5)).intersection(iu((F(3, 2), F(9, 2)))) == iu(
        (F(3, 2), 2), (4, F(9, 2))
    )
    assert iu((1, 2)).intersection(iu((3, 4))).is_empty


def test_negation():
    assert iu((2, 8)).negated() == iu((-8, -2))
    assert iu((-1, 3)).negated() == iu((-3, 1))
    assert iu((1, 2), (4, 5)).negated() == iu((-5, -4), (-2, -1))
    assert EMPTY.negated().is_empty


def test_hull():
    assert iu((1, 2), (4, 5)).hull == Interval(1, 5)
    with pytest.raises(ValueError):
        EMPTY.hull


def test_as_fraction_syntaxes():
    assert as_fraction("1/16") == F(1, 16)
    assert as_fraction("0.0625") == F(1, 16)
    assert as_fraction(0.0625) == F(1, 16)
    assert as_fraction("1e-3") == F(1, 1000)
    assert as_fraction(3) == 3
    with pytest.raises(ValueError):
        as_fraction("three")
    with pytest.raises(TypeError):
        as_fraction(None)


@pytest.mark.parametrize(
    "value",
    [float("inf"), float("-inf"), float("nan"), Decimal("Infinity"), Decimal("NaN"),
     Decimal("sNaN"), "inf", "-Infinity", "nan"],
)
def test_as_fraction_rejects_non_finite(value):
    with pytest.raises(ValueError, match="not a finite number"):
        as_fraction(value)


LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize(
    "value",
    [f"1e{LIMIT + 1}", f"1e-{LIMIT + 1}", "1e999999999", "-2.5E-999999999",
     Decimal("1e999999999")],
)
def test_as_fraction_bounds_decimal_exponents(value):
    with pytest.raises(ValueError, match="exponent out of range"):
        as_fraction(value)


def test_as_fraction_accepts_exponents_at_the_limit():
    assert as_fraction(f"1e{LIMIT}") == 10**LIMIT
    assert as_fraction(Decimal(f"1e-{LIMIT}")) == Fraction(1, 10**LIMIT)


def test_format_fraction():
    assert format_fraction(F(1, 16)) == "0.0625"
    assert format_fraction(F(-5, 2)) == "-2.5"
    assert format_fraction(F(3)) == "3"
    assert format_fraction(F(1, 3)) == "1/3"
    assert format_fraction(F(0)) == "0"
    assert format_fraction(F(1, 10)) == "0.1"


@given(st.fractions())
def test_format_fraction_round_trips(q):
    assert as_fraction(format_fraction(q)) == q


@given(interval_unions(allow_empty=True))
def test_normalize_idempotent(u):
    assert IntervalUnion(u.parts) == u


@given(interval_unions(allow_empty=True))
def test_double_negation(u):
    assert u.negated().negated() == u


@given(interval_unions(allow_empty=True), interval_unions(allow_empty=True))
def test_subset_antisymmetry(a, b):
    if a.issubset(b) and b.issubset(a):
        assert a == b
    if a == b:
        assert a.issubset(b) and b.issubset(a)


@given(interval_unions(allow_empty=True), interval_unions(allow_empty=True))
def test_union_intersection_bounds(a, b):
    u = a.union(b)
    assert a.issubset(u) and b.issubset(u)
    v = a.intersection(b)
    assert v.issubset(a) and v.issubset(b)
    assert a.intersects(b) == (not v.is_empty)


@given(interval_unions(allow_empty=True, den=10, lo=-20, hi=20))
def test_length_against_grid_oracle(u):
    # endpoints on the 0.1 grid: each part [a,b] holds 10*(b-a)+1 points,
    # so counting points recovers total length plus one step per part
    step = F(1, 10)
    count = 0
    k = -200
    while k <= 200:
        if u.contains_point(step * k):
            count += 1
        k += 1
    assert count * step == u.length + step * len(u.parts)
