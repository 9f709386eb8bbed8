import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdist.intervals import (
    BRIEF_BITS,
    EMPTY,
    MAX_SCALE_BITS,
    Interval,
    IntervalUnion,
    Literal,
    as_fraction,
    brief,
    common_scale,
    covers,
    digit_limit,
    format_fraction,
    iu,
    meets,
    merge_spans,
    read,
    scaled,
    unscaled,
)
from helpers import (
    frac,
    int_digit_limit,
    interval_unions,
    oracle_covers,
    oracle_format_fraction,
    oracle_merge,
    oracle_overlaps,
)

F = Fraction
Q = F(1, 4)


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


LIMIT = digit_limit()


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


def test_read_keeps_the_denominator_it_reads():
    assert read("0.125") == (125, 1000)
    assert read("3/6") == (3, 6)
    assert read("-0.50") == (-50, 100)
    assert read(" +1.5e2 ") == (150, 1)
    assert read("1.5e-2") == (15, 1000)
    assert read("٣/٦") == (3, 6)
    assert read(Literal("2.50")) == (250, 100)
    assert read(7) == (7, 1)
    assert read(0.375) == (3, 8)
    assert read(Decimal("-1.50")) == (-150, 100)
    assert read(F(6, 4)) == (3, 2)
    assert as_fraction("3/6") == F(1, 2)


def test_p_over_q_reads_underscores_between_digits():
    # as Fraction reads them from Python 3.11 on, on every version
    assert read("1_0/3_0") == (10, 30)
    assert as_fraction(" -1_000/3 ") == F(-1000, 3)
    for text in ("1__0/30", "_10/30", "10_/30", "10/_30", "1 0/30"):
        with pytest.raises(ValueError, match="not a number"):
            read(text)


def test_exponents_of_any_length_are_bounded():
    # a string Decimal could not hold, which Fraction read as 10**(10**30)
    for text in ("1e" + "9" * 30, "1e-" + "9" * 30, "0e" + "9" * 5000):
        with pytest.raises(ValueError, match="exponent out of range"):
            read(text)
    assert read("1e" + "0" * 5000 + "5") == (10**5, 1)
    # a JSON literal is shown as Decimal writes it, or as given past Decimal
    with pytest.raises(ValueError, match=r": '2\.5E\+99999'$"):
        read(Literal("25e99998"))
    with pytest.raises(ValueError, match=r": '1e999999999999999999999'$"):
        read(Literal("1e999999999999999999999"))


def test_common_scale_is_the_lcm_of_the_denominators():
    assert common_scale([F(1, 6), F(3, 4), F(5), F(-2, 9)]) == 36
    assert common_scale([]) == 1


def test_common_scale_gives_up_past_the_bit_limit():
    # 3 * 2**62 has MAX_SCALE_BITS bits; 3 * 2**63 has one more
    top = 2 ** (MAX_SCALE_BITS - 2)
    assert common_scale([F(1, top), F(1, 3)]) == 3 * top
    assert common_scale([F(1, 2 * top), F(1, 3)]) is None


@given(st.lists(frac(-5, 5, (2, 3, 7, 2**40, 3**30)), min_size=1))
def test_scaled_keys_order_and_equal_as_the_values(xs):
    d = common_scale(xs)
    keys = [scaled(x, d) for x in xs]
    for x, k in zip(xs, keys):
        if d is None:
            assert k is x
        else:
            assert k == x * d and isinstance(k, int)
        for y, l in zip(xs, keys):
            assert (k < l, k == l) == (x < y, x == y)


@st.composite
def spans(draw, den):
    lo, hi = sorted((draw(frac(-5, 5, den)), draw(frac(-5, 5, den))))
    return lo, hi


@given(st.lists(spans((2, 3, 7, 2**40, 3**30)), max_size=6))
def test_merge_spans_merges_as_intervals_did_on_values_and_keys(pairs):
    expected = tuple((p.lo, p.hi) for p in oracle_merge(Interval(lo, hi) for lo, hi in pairs))
    assert merge_spans(pairs) == expected
    assert IntervalUnion(tuple(Interval(lo, hi) for lo, hi in pairs)).parts == oracle_merge(
        Interval(lo, hi) for lo, hi in pairs
    )
    d = common_scale(e for pair in pairs for e in pair)
    keyed = merge_spans((scaled(lo, d), scaled(hi, d)) for lo, hi in pairs)
    assert tuple((unscaled(lo, d), unscaled(hi, d)) for lo, hi in keyed) == expected


def test_covers_walks_points_and_shared_ends():
    outer = ((0, 2), (3, 3), (5, 8))
    assert covers(outer, ((0, 0), (2, 2), (3, 3), (5, 6), (8, 8)))
    assert covers(outer, outer)
    assert not covers(outer, ((2, 3),))  # straddles a gap
    assert not covers(outer, ((4, 4),))
    assert not covers(outer, ((5, 9),))
    assert not covers(outer, ((8, 8), (9, 9)))  # walks past the last span
    assert covers(outer, ()) and covers((), ())
    assert not covers((), ((1, 1),))


def _quarters(lo, hi):
    return st.integers(int(lo * 4), int(hi * 4)).map(lambda k: F(k, 4))


@st.composite
def covering_pairs(draw):
    """(outer, inner) unions on a coarse grid, so points and shared or
    touching ends are common, either empty; inner is half the time cut from
    outer's parts, each cut a quarter past them at most, so that it is
    often covered and often only just not."""
    grid = interval_unions(max_parts=4, lo=-3, hi=3, den=2, allow_empty=True)
    outer = draw(grid)
    if not draw(st.booleans()):
        return outer, draw(grid)
    cuts = []
    for p in outer.parts:
        for _ in range(draw(st.integers(0, 2))):
            a, b = draw(_quarters(p.lo - Q, p.hi + Q)), draw(_quarters(p.lo - Q, p.hi + Q))
            cuts.append((min(a, b), max(a, b)))
    return outer, iu(*cuts)


def test_meets_counts_shared_ends_and_points():
    spans = ((0, 2), (3, 3), (5, 8))
    assert meets(spans, ((2, 2),)) and meets(((8, 9),), spans)  # touching ends
    assert meets(spans, ((3, 3),)) and meets(spans, ((2, 5),))  # a point, a bridge
    assert not meets(spans, ((F(5, 2), F(11, 4)), (4, 4), (9, 9)))  # each in a gap
    assert not meets(spans, ()) and not meets((), spans) and not meets((), ())


@given(covering_pairs())
@settings(max_examples=300)
def test_meets_equals_all_pairs_on_parts_and_keys(pair):
    a, b = pair
    expected = oracle_overlaps(a.parts, b.parts)
    assert meets(a.parts, b.parts) is expected and meets(b.parts, a.parts) is expected
    assert a.intersects(b) is expected and b.intersects(a) is expected
    d = common_scale(e for u in pair for p in u.parts for e in p)
    assert meets(a.part_keys(d), b.part_keys(d)) is expected


@given(covering_pairs())
@settings(max_examples=300)
def test_covers_equals_nested_any_all_on_parts_and_keys(pair):
    outer, inner = pair
    expected = oracle_covers(outer.parts, inner.parts)
    assert covers(outer.parts, inner.parts) is expected
    assert inner.issubset(outer) is expected
    assert outer.issuperset(inner) is expected
    d = common_scale(e for u in pair for p in u.parts for e in p)
    assert isinstance(d, int)
    assert covers(outer.part_keys(d), inner.part_keys(d)) is expected


def test_unscaled_gives_fractions():
    assert unscaled(6, 4) == F(3, 2) and isinstance(unscaled(6, 4), Fraction)
    assert unscaled(0, None) == 0 and isinstance(unscaled(0, None), Fraction)
    assert unscaled(F(1, 3), None) == F(1, 3)


def test_brief_writes_short_numbers_in_full():
    assert brief(F(5)) == "5"
    assert brief(F(-1, 3)) == "-1/3"
    edge = F(1, 2 ** (BRIEF_BITS - 1))  # a denominator of BRIEF_BITS bits
    assert brief(edge) == format_fraction(edge)
    assert brief(edge / 2).startswith("~")


@pytest.mark.parametrize(
    "q, text",
    [(F(15 * 10**4299), "~1.5e4300"), (F(-10**5000), "-~1e5000"),
     (F(1, 10**4300), "~1e-4300"), (F(2**200, 3), "~5.36e59")],
)
def test_brief_abbreviates_long_numbers(q, text):
    assert brief(q) == text


def test_reversed_endpoints_past_the_digit_limit_give_a_short_message():
    with pytest.raises(ValueError) as info:
        Interval(F(15 * 10**4299), 0)
    assert str(info.value) == "malformed interval: lo ~1.5e4300 > hi 0"


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


TERMINATING = st.builds(
    lambda num, a, b: F(num, 2**a * 5**b),
    st.integers(-(10**30), 10**30),
    st.integers(0, 200),
    st.integers(0, 200),
)
# Denominators with a factor other than 2 and 5, times some twos and fives.
NON_TERMINATING = st.builds(
    lambda num, odd, a, b: F(num, odd * 2**a * 5**b),
    st.integers(-(10**30), 10**30),
    st.integers(1, 10**12).map(lambda k: 3 * k if k % 3 else 7 * k),
    st.integers(0, 60),
    st.integers(0, 60),
)


@given(st.integers(-(10**40), 10**40).map(F) | TERMINATING | NON_TERMINATING)
def test_format_fraction_equals_division_loop(q):
    assert format_fraction(q) == oracle_format_fraction(q)


def test_digit_limit_reads_no_limit_as_the_default():
    assert digit_limit() == (sys.get_int_max_str_digits() or 4300)
    with int_digit_limit(0):
        assert digit_limit() == sys.int_info.default_max_str_digits == 4300
    with int_digit_limit(640):
        assert digit_limit() == 640


def test_format_fraction_falls_back_to_p_over_q_at_the_digit_limit():
    limit = digit_limit()
    with int_digit_limit(limit):
        # 1/2**k needs k places and 5**k, about 0.7k digits, as a decimal.
        for k in (limit + 1, 2 * limit, 3 * limit):
            q = F(1, 2**k)
            text = format_fraction(q)
            assert text.startswith("1/") and "." not in text
            assert as_fraction(text) == q
        # Few enough places, but too many digits: 3**(3L/2) * 5**(L-1).
        q = F(3 ** (3 * limit // 2), 2 ** (limit - 1))
        assert format_fraction(q) == f"{q.numerator}/{q.denominator}"
        # Within the limit the decimal stays.
        assert format_fraction(F(1, 2**limit)).startswith("0.")


def test_format_fraction_without_a_digit_limit_keeps_the_decimal():
    # with no limit on str(), a decimal keeps up to the default 4300
    # places; past them it is p/q, as it is under that limit
    with int_digit_limit(0):
        q = F(-3, 2**4300)
        assert format_fraction(q) == oracle_format_fraction(q)
        for q in (F(1, 2**4301), F(1, 2 ** (3 * 4300)), F(7, 10**4301)):
            assert format_fraction(q) == f"{q.numerator}/{q.denominator}"


def test_format_fraction_names_the_limit_when_p_over_q_is_too_long():
    limit = digit_limit()
    with int_digit_limit(limit):
        for q in (F(1, 2 ** (5 * limit)), F(3 ** (3 * limit)), F(3 ** (3 * limit), 7)):
            with pytest.raises(ValueError, match=f"limit of {limit} digits") as info:
                format_fraction(q)
            assert "set_int_max_str_digits" not in str(info.value)


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
