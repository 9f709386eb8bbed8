import itertools
import pickle
import time
import types
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdist.intervals import (
    DEFAULT_TOLERANCE,
    EMPTY,
    MIXED_KINDS,
    Interval,
    IntervalUnion,
    SurrogatePairError,
    common_scale,
    format_fraction,
    iu,
    unscaled,
)
from fdist.mass import (
    DEFAULT_SLICES,
    MAX_SLICES,
    DegenerateSupportError,
    DiscreteFuzzySet,
    LabelSet,
    MassAssignment,
    PiecewiseShape,
    SlicedAssignment,
    Step,
    ZeroAreaError,
    align_levels,
    as_focal,
    centre_of_gravity,
    chain_order,
    combine,
    fuzzy_from_mass,
    key_order,
    least_prejudiced,
    mass_from_discrete,
    max_likelihood_interval,
    product_rows,
    slice_shape,
)
from helpers import (
    COPRIME_DENS,
    WIDE_PRIME_DENS,
    aligned,
    coprime_shapes,
    exactly_normalised,
    frac,
    interval_unions,
    kernel_masses,
    label_masses,
    moved_off_one,
    nested_masses,
    numeric_masses,
    oracle_align_levels,
    oracle_centre_of_gravity,
    oracle_focal_intersection,
    oracle_focal_intersects,
    oracle_focal_is_empty,
    oracle_focal_issuperset,
    oracle_focal_key,
    oracle_focal_union,
    oracle_format_focal,
    oracle_from_mass,
    oracle_fuzzy_from_mass,
    oracle_least_prejudiced,
    oracle_level_cut,
    oracle_mass_keys,
    oracle_mu,
    oracle_stack_keys,
    piecewise_shapes,
    stacks,
    totals_one,
    wide_masses,
)

F = Fraction
H = F(1, 2)
Q = F(1, 4)

TRIANGLE_A = PiecewiseShape([(1, 0), (3, 1), (5, 0)])
TRIANGLE_B = PiecewiseShape([(6, 0), (8, 1), (10, 0)])

MASS_A2 = MassAssignment([(iu((1, 5)), H), (iu((2, 4)), H)])
MASS_DIR_A = MassAssignment([(iu((1, 4)), H), (iu((2, 3)), H)])
MASS_DIR_B = MassAssignment([(iu((6, 9)), H), (iu((7, 8)), H)])


def fs(*labels):
    return frozenset(labels)


LABELS = st.frozensets(st.sampled_from("abc"))
FOCALS = st.one_of(
    st.just(EMPTY),
    LABELS,
    LABELS.map(LabelSet),
    interval_unions(max_parts=2, lo=-3, hi=3, den=2, allow_empty=True),
)
COPRIME_MASSES = numeric_masses(den=COPRIME_DENS) | numeric_masses(den=WIDE_PRIME_DENS)


@st.composite
def cog_masses(draw):
    """Kernel masses over quarters or over WIDE_PRIME_DENS, so on both sides
    of MAX_SCALE_BITS, with the empty set at times and each focal element
    drawn collapsed to the points at its parts' low ends or not, so that
    zero-length parts and zero area both turn up."""
    m = draw(kernel_masses(den=4) | kernel_masses(den=WIDE_PRIME_DENS, max_focals=6))
    return MassAssignment(
        (iu(*((p.lo, p.lo) for p in f.parts)) if draw(st.booleans()) else f, mass)
        for f, mass in m.entries
    )


def endpoints(focals) -> list:
    return [e for f in focals if isinstance(f, IntervalUnion) for p in f.parts for e in (p.lo, p.hi)]


def primes_from(start: int, count: int) -> list:
    found = []
    k = start
    while len(found) < count:
        if all(k % p for p in range(2, int(k**0.5) + 1)):
            found.append(k)
        k += 1
    return found


class TestMassAssignment:
    def test_merges_duplicates_and_sorts(self):
        m = MassAssignment([(iu((2, 4)), F(1, 4)), (iu((1, 5)), H), (iu((2, 4)), F(1, 4))])
        assert m.entries == ((iu((1, 5)), H), (iu((2, 4)), H))

    def test_zero_mass_dropped(self):
        m = MassAssignment([(iu((1, 5)), 1), (iu((2, 4)), 0)])
        assert m.focals() == (iu((1, 5)),)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            MassAssignment([(iu((1, 5)), F(3, 2)), (iu((2, 4)), F(-1, 2))])

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            MassAssignment([(iu((1, 5)), F(9, 10))])

    def test_messages_print_long_numbers_briefly(self):
        tiny = F(1, 3**8000)
        with pytest.raises(ValueError, match=r"^negative mass -~1\.07e-3817 on \[1,5\]$"):
            MassAssignment([(iu((1, 5)), -tiny)])
        with pytest.raises(ValueError, match=r"^masses sum to ~1\.07e-3817, expected 1$"):
            MassAssignment([(iu((1, 5)), tiny)])

    def test_tolerance_allows_rounded_sums(self):
        # three rounded thirds load, each divided by their total into 1/3
        third = F(3333333333, 10**10)
        m = MassAssignment([(iu((i, i)), third) for i in range(3)], tolerance=F(1, 10**6))
        assert m.entries == tuple((iu((i, i)), F(1, 3)) for i in range(3))
        assert totals_one(m)

    def test_empty_focal_normalized(self):
        m = MassAssignment([(fs("a"), H), (fs(), F(1, 4)), (EMPTY, F(1, 4))])
        assert m.empty_mass == H
        assert not m.is_normal
        assert m.entries[-1][0] == EMPTY

    @given(COPRIME_MASSES | label_masses())
    @settings(max_examples=300)
    def test_entries_in_focal_key_order(self, m):
        assert m.focals() == tuple(sorted(m.focals(), key=oracle_focal_key))

    @given(st.lists(
        interval_unions(max_parts=2, lo=-3, hi=3, den=2, allow_empty=True)
        | interval_unions(max_parts=2, lo=-3, hi=3, den=COPRIME_DENS + WIDE_PRIME_DENS)
    ))
    @settings(max_examples=300)
    def test_integer_keys_order_as_fraction_keys(self, focals):
        focals = [as_focal(f) for f in focals]
        d = common_scale(endpoints(focals))
        keyed = [(key_order(f.part_keys(d)), key_order(f.part_keys())) for f in focals]
        for (k, key), (l, other) in itertools.product(keyed, repeat=2):
            assert (k < l, k == l) == (key < other, key == other)

    def test_many_prime_denominators_keep_fraction_keys(self):
        # their lcm would have about 3000 bits, and so would every key
        ps = primes_from(1000, 300)
        m = MassAssignment((iu((F(i, p), F(i + 40, p))), F(1, len(ps))) for i, p in enumerate(ps))
        assert common_scale(endpoints(m.focals())) is None
        assert m.focals() == tuple(sorted(m.focals(), key=oracle_focal_key))
        assert fuzzy_from_mass(m).steps == oracle_fuzzy_from_mass(m).steps
        assert least_prejudiced(m) == oracle_least_prejudiced(m)

    def test_negated(self):
        m = MassAssignment([(iu((2, 8)), H), (iu((4, 6)), H)])
        assert m.negated() == MassAssignment([(iu((-8, -2)), H), (iu((-6, -4)), H)])

    def test_combine(self):
        m = combine([(H, MassAssignment([(iu((1, 9)), H), (iu((3, 7)), H)])),
                     (H, MassAssignment([(iu((2, 8)), 1)]))])
        assert m == MassAssignment(
            [(iu((1, 9)), F(1, 4)), (iu((2, 8)), H), (iu((3, 7)), F(1, 4))]
        )


FOCAL_METHODS = {
    "issuperset": oracle_focal_issuperset,
    "issubset": lambda a, b: oracle_focal_issuperset(b, a),
    "intersects": oracle_focal_intersects,
    "union": oracle_focal_union,
    "intersection": oracle_focal_intersection,
}


def assert_divided(built, pairs):
    """built, a mass or sliced assignment read from raw pairs, is the one
    built from pairs, the raw pairs divided by their total: equal, hashing
    alike, with one repr, entries or slices, and pickle, and totalling 1."""
    divided = type(built)(pairs)
    view = attrgetter("slices" if isinstance(built, SlicedAssignment) else "entries")
    twin = pickle.loads(pickle.dumps(built))
    for value in (built, twin):
        assert value == divided and hash(value) == hash(divided)
        assert repr(value) == repr(divided) and view(value) == view(divided)
        assert totals_one(value)
    assert twin._keys == built._keys and twin._mass_scale == built._mass_scale


class TestDividedWhereRead:
    """Masses within the tolerance of 1 are divided by their total by the
    constructors, where the tolerance is read, on label sets and unions, on
    either side of MAX_SCALE_BITS."""

    ASSIGNMENTS = (
        label_masses()
        | label_masses(den=WIDE_PRIME_DENS, max_focals=6)
        | kernel_masses(den=4)
        | kernel_masses(den=WIDE_PRIME_DENS, max_focals=6)
    )

    @given(ASSIGNMENTS, st.sampled_from([DEFAULT_TOLERANCE, F(1, 10**7)]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_raw_masses_build_the_divided_assignment(self, m, tolerance, data):
        raw = data.draw(moved_off_one(m, tolerance))
        assert_divided(MassAssignment(raw, tolerance=tolerance), exactly_normalised(raw))
        raw = data.draw(moved_off_one(m, DEFAULT_TOLERANCE))
        assert_divided(SlicedAssignment(raw), exactly_normalised(raw))

    def test_label_sets_keep_their_focal_elements(self):
        # a label set's entries are rebuilt from its keys, with the divided
        # masses, equal to and written like the given focal elements
        raw = [(fs("x"), H), (fs("x", "y"), F(9, 20))]
        m = MassAssignment(raw, tolerance=F(1, 10))
        assert repr(m) == "MassAssignment({x}:10/19, {x,y}:9/19)"
        assert_divided(m, exactly_normalised(raw))
        stack = [(fs("x", "y"), H), (fs("x"), H - F(1, 10**10))]
        assert_divided(SlicedAssignment(stack), exactly_normalised(stack))

    def test_the_key_sum_becomes_the_mass_scale(self):
        # 1/2 and 9/20 are 10 and 9 over 20, so 10/19 and 9/19 over 19
        m = MassAssignment([(iu((0, 1)), H), (iu((0, 2)), F(9, 20))], tolerance=F(1, 10))
        assert (m._mass_scale, [mass for _, mass in m._keys]) == (19, [10, 9])

    def test_fraction_keys_past_the_scale_limit_are_divided(self):
        # masses over four wide primes and 10**10 have no integer common
        # scale: the keys are the Fractions, each divided by the total
        masses = [F(1, q) for q in WIDE_PRIME_DENS[:4]]
        raw = [(iu((0, 8 - k)), mass) for k, mass in enumerate(masses + [1 - sum(masses)])]
        raw[-1] = (raw[-1][0], raw[-1][1] - F(1, 10**10))
        for built in (MassAssignment(raw), SlicedAssignment(raw)):
            assert built._mass_scale is None
            assert_divided(built, exactly_normalised(raw))


MASS_FORMS = (
    lambda q: q,
    lambda q: format_fraction(q),
    lambda q: f"{q.numerator * 3}/{q.denominator * 3}",
    float,
    lambda q: Decimal(q.numerator) / Decimal(q.denominator),
)


@st.composite
def raw_entries(draw):
    """Entries as a caller gives them: label sets and unions (now and then
    the empty set of either kind, a focal element given again, labels beside
    unions), endpoints over small denominators or WIDE_PRIME_DENS, masses
    zero or negative at times, over their total or over wide primes (whose
    repeats can sum away their denominators), off 1 inside and outside the
    tolerance, given as Fractions, text, floats or Decimals."""
    n = draw(st.integers(0, 6))
    dens = draw(st.sampled_from([(1, 2, 4, 10), WIDE_PRIME_DENS, (4,) + WIDE_PRIME_DENS]))
    labels, unions = draw(st.booleans()), draw(st.booleans()) or draw(st.booleans())
    focals = []
    for _ in range(n):
        kind = draw(st.integers(0, 9))
        if kind == 0 or not (labels or unions):
            focals.append(draw(st.sampled_from([EMPTY, frozenset()])))
        elif focals and kind == 1:
            focals.append(draw(st.sampled_from(focals)))
        elif labels and (kind < 5 or not unions):
            focals.append(draw(st.frozensets(st.sampled_from("abc"), min_size=1)))
        else:
            focals.append(draw(interval_unions(max_parts=3, lo=-4, hi=4, den=dens)))
    if n and draw(st.integers(0, 3)) == 0:
        p = draw(st.sampled_from(WIDE_PRIME_DENS))
        masses = ([F(1, p), F(p - 2, 2 * p)] + [F(1, 2 * (n - 2))] * (n - 2))[:n] if n > 2 \
            else [F(1, p), F(p - 2, 2 * p)][:n]
    else:
        weights = [draw(st.integers(-1 if draw(st.integers(0, 9)) == 0 else 0, 6)) for _ in range(n)]
        total = sum(weights) or 1
        masses = [F(w, total) for w in weights]
    off = draw(st.sampled_from([F(0)] * 3 + [F(1, 10**10), F(-3, 10**9), F(1, 10**6)]))
    return [(f, draw(st.sampled_from(MASS_FORMS))(mass * (1 + off))) for f, mass in zip(focals, masses)]


def stored(build, view: str):
    """(scale, mass scale, keys, entries or slices) of what build builds, or
    the message of the ValueError it raises."""
    try:
        x = build()
    except ValueError as exc:
        return str(exc)
    return x._scale, x._mass_scale, x._keys, getattr(x, view)


def expected(oracle, *args):
    try:
        return oracle(*args)
    except ValueError as exc:
        return str(exc)


class TestBuilderEqualsTheOracle:
    """MassAssignment and SlicedAssignment store the scales and keys, and
    give the entries or slices, that the Fraction constructors
    (oracle_mass_keys, oracle_stack_keys) give, or raise their message."""

    @given(raw_entries(), st.sampled_from([DEFAULT_TOLERANCE, F(1, 10**7)]))
    @settings(max_examples=400, deadline=None)
    def test_constructors_agree(self, entries, tolerance):
        assert stored(lambda: MassAssignment(entries, tolerance=tolerance), "entries") == \
            expected(oracle_mass_keys, entries, tolerance)
        assert stored(lambda: SlicedAssignment(entries), "slices") == \
            expected(oracle_stack_keys, entries)

    def test_messages_come_in_the_order_checked(self):
        # a negative mass is named before a later entry is read; a stack
        # reads every slice, then checks kinds, then masses
        bad = [(iu((0, 1), (1, 2)), F(-1, 3)), (fs("a"), "x")]
        with pytest.raises(ValueError, match=r"^negative mass -1/3 on \[0,2\]$"):
            MassAssignment(bad)
        with pytest.raises(ValueError, match="^not a number: 'x'$"):
            SlicedAssignment(bad)
        mixed = [(iu((0, 1)), 0), (fs("a"), 1)]
        assert MassAssignment(mixed) == MassAssignment([(fs("a"), 1)])
        with pytest.raises(ValueError, match=f"^{MIXED_KINDS}$"):
            SlicedAssignment(mixed)
        with pytest.raises(ValueError, match=r"^slice mass 0 on \{a\} is not positive$"):
            SlicedAssignment([(fs("a"), 1), (fs("a"), 0), (EMPTY, -1)])


class TestFocalInterface:
    @given(FOCALS, FOCALS)
    @settings(max_examples=300, deadline=None)
    def test_methods_match_dispatch_oracle(self, a, b):
        fa, fb = as_focal(a), as_focal(b)
        for name, oracle in FOCAL_METHODS.items():
            try:
                expected = oracle(a, b)
            except TypeError:
                with pytest.raises(TypeError, match=MIXED_KINDS):
                    getattr(fa, name)(fb)
                continue
            got = getattr(fa, name)(fb)
            if isinstance(expected, bool):
                assert got is expected, name
            else:  # the oracle may hand back a bare or empty frozenset
                assert got == as_focal(expected), name
                assert type(got) in (IntervalUnion, LabelSet), name

    @given(FOCALS)
    @settings(max_examples=100, deadline=None)
    def test_key_text_and_equality_match_oracle(self, a):
        f = as_focal(a)
        assert str(f) == oracle_format_focal(a)
        if oracle_focal_is_empty(a):
            assert f is EMPTY
        else:
            assert f == a and hash(f) == hash(a)

    def test_label_set_key_is_its_sorted_labels(self):
        assert LabelSet({"b", "c", "a"}).part_keys() == ("a", "b", "c")
        assert key_order(LabelSet({"b"}).part_keys()) < key_order(EMPTY.part_keys())

    def test_as_focal_converts_once(self):
        m = MassAssignment([(fs("a", "b"), H), (fs("b"), H)])
        assert all(type(f) is LabelSet for f in m.focals())
        assert m.mass_of(fs("b")) == H
        s = SlicedAssignment([(fs("a"), H), (fs(), H)])
        assert type(s.slices[0][0]) is LabelSet and s.slices[1][0] is EMPTY
        assert not s.is_normal
        with pytest.raises(TypeError, match="not a focal element: set"):
            as_focal({"a"})

    @pytest.mark.parametrize("labels", [{1, "a"}, {1, 2}, {"a", ("b",)}, {2.5}])
    def test_labels_other_than_strings_are_refused(self, labels):
        # ints beside strings do not sort, and ints alone do not join into
        # the label set's text; both are refused where a label set is made
        refusals = [
            LabelSet,
            lambda f: as_focal(frozenset(f)),
            lambda f: MassAssignment([(frozenset(f), 1)]),
            lambda f: SlicedAssignment([(frozenset(f), 1)]),
        ]
        for make in refusals:
            with pytest.raises(TypeError, match="labels must be strings, got"):
                make(labels)

    @pytest.mark.parametrize("label", ["\ud800\udfff", "x\udbff\udc00y"])
    def test_labels_holding_a_surrogate_pair_are_refused(self, label):
        # JSON writes the pair as two escapes that read back as one
        # character, so the label could not be written and read back
        refusals = [
            LabelSet,
            lambda f: as_focal(frozenset(f)),
            lambda f: MassAssignment([(frozenset(f), 1)]),
            lambda f: mass_from_discrete(DiscreteFuzzySet(dict.fromkeys(f, 1))),
        ]
        for make in refusals:
            with pytest.raises(SurrogatePairError, match="label .* holds a surrogate pair"):
                make({"a", label})

    def test_lone_surrogates_and_other_text_make_labels(self):
        # a lone surrogate, or a low one before a high one, is written as
        # escapes that read back as itself
        labels = {"\ud800", "\udfff\ud800", "\U0001f600", "\xe9", "plain"}
        assert LabelSet(labels) == frozenset(labels)


class TestMassFromDiscrete:
    def test_normal_three_levels(self):
        m = mass_from_discrete(DiscreteFuzzySet({"a": 1, "b": F(7, 10), "c": F(1, 5)}))
        assert m.entries == (
            (fs("a"), F(3, 10)),
            (fs("a", "b"), H),
            (fs("a", "b", "c"), F(1, 5)),
        )

    def test_subnormal_gets_empty_mass(self):
        m = mass_from_discrete(DiscreteFuzzySet({"a": F(9, 10), "b": F(3, 5), "c": F(1, 10)}))
        assert m.entries == (
            (fs("a"), F(3, 10)),
            (fs("a", "b"), H),
            (fs("a", "b", "c"), F(1, 10)),
            (EMPTY, F(1, 10)),
        )

    def test_ties_merge(self):
        m = mass_from_discrete(DiscreteFuzzySet({"a": H, "b": H}))
        assert m.entries == ((fs("a", "b"), H), (EMPTY, H))

    def test_zero_grades_excluded(self):
        m = mass_from_discrete(DiscreteFuzzySet({"a": 1, "b": 0}))
        assert m.entries == ((fs("a"), 1),)

    def test_label_sets_are_built_when_read(self):
        # held as keys, as a numeric set is: its label sets are rebuilt from
        # their sorted labels on first read, equal to, hashing and written
        # like the ones given
        labels = [f"label{k}" for k in range(40)]
        grades = DiscreteFuzzySet({label: F(k % 7, 6) for k, label in enumerate(labels)})
        m = mass_from_discrete(grades)
        assert m._view is None and len(m) == 6
        levels = {g for _, g in grades.grades if g}
        given = sorted((LabelSet(l for l, g in grades.grades if g >= level) for level in levels),
                       key=lambda f: key_order(f.part_keys()))
        built = m.focals()
        assert m._view is not None
        assert built == tuple(given)
        for b, g in zip(built, given):
            assert type(b) is LabelSet and hash(b) == hash(g) and repr(b) == repr(g)

    def test_grade_outside_unit_rejected(self):
        with pytest.raises(ValueError):
            DiscreteFuzzySet({"a": F(11, 10)})
        with pytest.raises(ValueError, match=r"^grade 2 for 'a{36}\.\.\. outside \[0,1\]$"):
            DiscreteFuzzySet({"a" * 5000: 2})

    def test_label_given_twice_rejected(self):
        # labels are kept as strings, so 1 and "1" are one label
        with pytest.raises(ValueError, match=r"^label '1' given twice$"):
            DiscreteFuzzySet({1: 1, "1": H})
        with pytest.raises(ValueError, match=r"^label '7{36}\.\.\. given twice$"):
            DiscreteFuzzySet({int("7" * 4000): 1, "7" * 4000: H})

    @given(
        st.dictionaries(
            st.sampled_from("abcde"),
            st.integers(0, 16).map(lambda k: F(k, 16)),
            min_size=1,
        )
    )
    def test_sums_to_one_and_nested(self, grades):
        m = mass_from_discrete(DiscreteFuzzySet(grades))
        assert totals_one(m)
        nonempty = sorted(
            (f for f in m.focals() if f != EMPTY), key=len
        )
        for small, big in zip(nonempty, nonempty[1:]):
            assert small < big  # proper nesting of label sets


class TestSliceShape:
    def test_triangle_two_slices(self):
        s = slice_shape(TRIANGLE_A, 2)
        assert s.to_mass() == MASS_A2
        assert [f for f, _ in s.slices] == [iu((1, 5)), iu((2, 4))]

    def test_triangle_four_slices(self):
        s = slice_shape(TRIANGLE_A, 4)
        q = F(1, 4)
        assert s.to_mass() == MassAssignment(
            [
                (iu((1, 5)), q),
                (iu((F(3, 2), F(9, 2))), q),
                (iu((2, 4)), q),
                (iu((F(5, 2), F(7, 2))), q),
            ]
        )

    def test_crisp_interval_any_n(self):
        crisp = PiecewiseShape([(1, 0), (1, 1), (2, 1), (2, 0)])
        for n in (1, 3, 7):
            assert slice_shape(crisp, n).to_mass() == MassAssignment([(iu((1, 2)), 1)])
        plateau_only = PiecewiseShape([(1, 1), (2, 1)])
        assert slice_shape(plateau_only, 5).to_mass() == MassAssignment([(iu((1, 2)), 1)])

    def test_subnormal_appends_empty_slice(self):
        shape = PiecewiseShape([(0, 0), (1, H), (2, 0)])
        s = slice_shape(shape, 1)
        assert s.to_mass() == MassAssignment([(iu((0, 2)), H), (EMPTY, H)])
        assert s.slices[-1] == (EMPTY, H)
        assert totals_one(s)

    def test_bimodal_shape_slices_to_union(self):
        # two crisp humps over a half-height plateau
        shape = PiecewiseShape(
            [(1, 0), (1, 1), (2, 1), (2, H), (4, H), (4, 1), (5, 1), (5, 0)]
        )
        s = slice_shape(shape, 2)
        assert [f for f, _ in s.slices] == [
            iu((1, 5)),
            iu((1, 2), (4, 5)),
        ]

    def test_sloped_bimodal_cut(self):
        shape = PiecewiseShape(
            [(1, 0), (F(3, 2), 1), (2, H), (4, H), (F(9, 2), 1), (5, 0)]
        )
        s = slice_shape(shape, 2)
        assert s.slices[1] == (iu((F(5, 4), 2), (4, F(19, 4))), H)

    def test_zero_slices_rejected(self):
        with pytest.raises(ValueError):
            slice_shape(TRIANGLE_A, 0)

    def test_vertex_order_enforced(self):
        with pytest.raises(ValueError):
            PiecewiseShape([(2, 0), (1, 1)])

    @given(st.integers(1, 12))
    def test_slices_nested_and_total_one(self, n):
        s = slice_shape(TRIANGLE_A, n)
        assert totals_one(s) and totals_one(s.to_mass())
        focals = [f for f, _ in s.slices]
        for big, small in zip(focals, focals[1:]):
            assert small.issubset(big)

    def test_count_defaults_to_default_slices(self):
        assert slice_shape(TRIANGLE_A) == slice_shape(TRIANGLE_A, DEFAULT_SLICES)
        assert len(slice_shape(TRIANGLE_A).slices) == DEFAULT_SLICES

    def test_count_over_the_limit_refused_before_slicing(self):
        assert len(slice_shape(TRIANGLE_A, MAX_SLICES).slices) == MAX_SLICES
        start = time.perf_counter()
        for n in (MAX_SLICES + 1, 10**9):
            with pytest.raises(ValueError, match=f"^slice count {n} exceeds the limit {MAX_SLICES}$"):
                slice_shape(TRIANGLE_A, n)
        assert time.perf_counter() - start < 0.5


@st.composite
def point_unions(draw):
    """Masses on one interval with single points added to it, the empty set
    among them at times: every such union has the interval's length, and
    two of them are nested only when one adds the other's points."""
    lo = draw(frac(-4, 0, 2))
    hi = lo + draw(frac(0, 4, 2))
    points = draw(st.lists(frac(5, 8, 2) | frac(-8, -5, 2), min_size=1, max_size=3, unique=True))
    k = draw(st.integers(1, 4))
    focals = [
        iu((lo, hi), *((p, p) for p in draw(st.lists(st.sampled_from(points), unique=True))))
        for _ in range(k)
    ]
    focals += [EMPTY] * draw(st.integers(0, 1))
    weights = [draw(st.integers(1, 4)) for _ in focals]
    return MassAssignment((f, F(w, sum(weights))) for f, w in zip(focals, weights))


@st.composite
def wide_chains(draw):
    """Chains of intervals, the empty set on top at times, with endpoints
    over WIDE_PRIME_DENS, so that their keys mostly stay Fractions (a None
    scale)."""
    k = draw(st.integers(1, 5))
    los = sorted(draw(st.lists(frac(-3, 0, WIDE_PRIME_DENS), min_size=k, max_size=k)))
    his = sorted(draw(st.lists(frac(1, 4, WIDE_PRIME_DENS), min_size=k, max_size=k)))
    focals = [iu((lo, hi)) for lo, hi in zip(los, reversed(his))]
    focals += [EMPTY] * draw(st.integers(0, 1))
    weights = [draw(st.integers(1, 4)) for _ in focals]
    return MassAssignment((f, F(w, sum(weights))) for f, w in zip(focals, weights))


STACKABLE = st.one_of(
    nested_masses(),
    numeric_masses(),
    point_unions(),
    label_masses(),
    label_masses(max_focals=5),
    wide_chains(),
    kernel_masses(den=WIDE_PRIME_DENS),
    wide_masses(labels=False),
)


class TestChainOrder:
    def test_a_chain_widest_first_and_the_empty_set_last(self):
        m = MassAssignment([(EMPTY, Q), (iu((2, 4)), Q), (iu((1, 5)), H)])
        assert chain_order(m) == ([0, 1, 2], None)
        labels = MassAssignment([(fs("a"), Q), (fs("a", "b"), H), (EMPTY, Q)])
        assert [labels._keys[i][0] for i in chain_order(labels)[0]] == [("a", "b"), ("a",), ()]
        assert chain_order(labels)[1] is None

    def test_the_first_pair_not_nested_is_the_gap(self):
        m = MassAssignment([(iu((1, 4)), H), (iu((6, 9)), Q), (iu((2, 3)), Q)])
        # (1,4) and (6,9) tie on length, and the stable sort keeps key order
        assert chain_order(m) == ([0, 2, 1], (0, 2))
        assert chain_order(MassAssignment([(fs("a"), H), (fs("b"), H)]))[1] == (0, 1)

    @given(STACKABLE)
    @settings(max_examples=300, deadline=None)
    def test_from_mass_matches_the_stacking_oracle(self, m):
        """Equal slices, or the same refusal; from_mass builds neither
        the set's entries nor the stack's slices."""
        try:
            s = SlicedAssignment.from_mass(m)
        except ValueError as error:
            assert m._view is None
            with pytest.raises(ValueError) as expected:
                oracle_from_mass(m)
            assert str(error) == str(expected.value)
            return
        assert m._view is None and s._view is None
        assert s.slices == oracle_from_mass(m)
        assert totals_one(s)


class TestSlicedAssignment:
    def test_from_mass_orders_by_containment(self):
        m = MassAssignment(
            [
                (iu((1, 5)), H),
                (iu((1, 2), (4, 5)), F(1, 4)),
                (iu((1, 2)), F(1, 4)),
            ]
        )
        s = SlicedAssignment.from_mass(m)
        assert s.slices == (
            (iu((1, 5)), H),
            (iu((1, 2), (4, 5)), Q),
            (iu((1, 2)), Q),
        )
        assert totals_one(s)

    def test_from_mass_puts_empty_on_top(self):
        m = MassAssignment([(iu((1, 4)), H), (EMPTY, H)])
        s = SlicedAssignment.from_mass(m)
        assert s.slices == ((iu((1, 4)), H), (EMPTY, H))

    def test_from_mass_puts_the_superset_of_equal_length_first(self):
        # [0,1] and [0,1],[2,2] both have length 1, and key_order puts the
        # subset first; the single point makes the other the superset
        for extra in ((2, 2), (-1, -1)):
            m = MassAssignment([(iu((0, 1)), Q), (iu((0, 1), extra), Q), (EMPTY, H)])
            assert SlicedAssignment.from_mass(m).slices == (
                (iu((0, 1), extra), Q), (iu((0, 1)), Q), (EMPTY, H)
            )
        points = MassAssignment([(iu((3, 3)), H), (iu((3, 3), (5, 5)), Q), (EMPTY, Q)])
        assert SlicedAssignment.from_mass(points).slices == (
            (iu((3, 3), (5, 5)), Q), (iu((3, 3)), H), (EMPTY, Q)
        )
        # equal length and more parts still fail when not nested
        apart = MassAssignment([(iu((0, 1)), H), (iu((0, 1), (2, 2)), Q), (iu((0, 1), (3, 3)), Q)])
        with pytest.raises(ValueError, match="not nested"):
            SlicedAssignment.from_mass(apart)

    def test_from_mass_rejects_unnested(self):
        m = MassAssignment([(iu((1, 4)), H), (iu((6, 9)), H)])
        with pytest.raises(ValueError, match="the product strategy does not"):
            SlicedAssignment.from_mass(m)

    def test_reversed_levels(self):
        s = SlicedAssignment.from_mass(
            MassAssignment([(iu((1, 5)), F(3, 4)), (iu((2, 4)), F(1, 4))])
        )
        r = s.reversed_levels()
        assert r.slices == ((iu((2, 4)), Q), (iu((1, 5)), F(3, 4)))
        assert totals_one(r)

    @given(
        st.one_of(
            nested_masses().map(SlicedAssignment.from_mass),
            st.tuples(piecewise_shapes(), st.integers(1, 12)).map(lambda t: slice_shape(*t)),
        ),
        st.data(),
    )
    def test_constructor_round_trips_and_rejects_invalid_stacks(self, s, data):
        rebuilt = SlicedAssignment(s.slices)
        assert rebuilt == s and totals_one(rebuilt) and totals_one(s)
        with pytest.raises(ValueError, match="at least one slice"):
            SlicedAssignment(())
        k = data.draw(st.integers(0, len(s.slices) - 1))
        f, mass = s.slices[k]

        def with_mass(m):
            return s.slices[:k] + ((f, m),) + s.slices[k + 1 :]

        with pytest.raises(ValueError, match="is not positive"):
            SlicedAssignment(with_mass(data.draw(st.sampled_from([0, -mass]))))
        # a stack within the tolerance of 1 is divided by its total, as a
        # mass assignment is
        near = with_mass(mass + DEFAULT_TOLERANCE)
        divided = SlicedAssignment(near)
        assert divided == SlicedAssignment(exactly_normalised(near)) and totals_one(divided)
        excess = data.draw(st.integers(2, 8).map(lambda j: F(j, 10**9)))
        for off in (mass + excess, mass - excess):
            if off > 0:
                with pytest.raises(ValueError, match="masses sum to .*, expected 1"):
                    SlicedAssignment(with_mass(off))


def scanned_numeric(focals) -> bool:
    """The kind of focal elements read entry by entry: numeric unless one
    is a label set (the empty set is numeric)."""
    return not any(isinstance(f, frozenset) for f in focals)


class TestOneKind:
    LABELS = MassAssignment([(fs("a", "b"), H), (fs("a"), H)])
    NUMBERS = MassAssignment([(iu((1, 2)), H), (iu((0, 3)), H)])

    def test_mass_assignment_refuses_mixed_kinds(self):
        for entries in ([(fs("a"), H), (iu((1, 2)), H)],
                        [(iu((1, 2)), Q), (EMPTY, Q), (fs("a"), H)]):
            with pytest.raises(ValueError, match=MIXED_KINDS):
                MassAssignment(entries)

    def test_sliced_assignment_refuses_mixed_kinds(self):
        for entries in ([(iu((0, 3)), H), (fs("a"), H)], [(fs("a"), Q), (EMPTY, Q), (iu((1, 2)), H)]):
            with pytest.raises(ValueError, match=MIXED_KINDS):
                SlicedAssignment(entries)

    def test_combine_refuses_mixed_kinds(self):
        with pytest.raises(ValueError, match=MIXED_KINDS):
            combine([(H, self.LABELS), (H, self.NUMBERS)])

    def test_empty_set_sits_beside_either_kind(self):
        labels = MassAssignment([(fs("a"), H), (fs(), H)])
        numbers = MassAssignment([(iu((1, 2)), H), (fs(), H)])
        assert (labels.is_numeric, numbers.is_numeric) == (False, True)
        assert not SlicedAssignment([(EMPTY, H), (fs("a"), H)]).is_numeric
        assert SlicedAssignment([(EMPTY, H), (iu((1, 2)), H)]).is_numeric

    @given(
        label_masses() | numeric_masses() | st.sampled_from([EMPTY, fs()]).map(
            lambda e: MassAssignment([(e, 1)])
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200)
    def test_kind_matches_a_scan_of_entries(self, m, random):
        assert m.is_numeric is scanned_numeric(m.focals())
        stack = random.sample(m.entries, len(m.entries))
        assert SlicedAssignment(stack).is_numeric is scanned_numeric(m.focals())


class TestAlignLevels:
    def test_splits_to_boundary_union(self):
        aen = SlicedAssignment.from_mass(
            MassAssignment(
                [
                    (iu((1, 5)), H),
                    (iu((1, 2), (4, 5)), Q),
                    (iu((1, 2)), Q),
                ]
            )
        )
        b = SlicedAssignment.from_mass(MASS_DIR_B)
        assert aligned(aen, b) == [
            (iu((1, 5)), iu((6, 9)), H),
            (iu((1, 2), (4, 5)), iu((7, 8)), Q),
            (iu((1, 2)), iu((7, 8)), Q),
        ]

    def test_identical_unchanged(self):
        s = SlicedAssignment.from_mass(MASS_A2)
        assert aligned(s, s) == [(f, f, mass) for f, mass in s.slices]

    @given(nested_masses(), nested_masses())
    def test_alignment_preserves_mass(self, ma, mb):
        shared = aligned(SlicedAssignment.from_mass(ma), SlicedAssignment.from_mass(mb))
        assert MassAssignment((fa, h) for fa, _, h in shared) == ma
        assert MassAssignment((fb, h) for _, fb, h in shared) == mb
        assert all(h > 0 for _, _, h in shared)

    @given(nested_masses(), nested_masses(), st.booleans())
    @settings(max_examples=300)
    def test_merge_equals_refine_and_zip(self, ma, mb, reverse):
        sa, sb = SlicedAssignment.from_mass(ma), SlicedAssignment.from_mass(mb)
        if reverse:
            sb = sb.reversed_levels()
        assert aligned(sa, sb) == oracle_align_levels(sa, sb)

    @given(st.data())
    def test_merge_equals_refine_and_zip_past_the_scale_limit(self, data):
        # masses over four or more wide primes have no integer common scale
        sa, sb = (
            data.draw(kernel_masses(den=WIDE_PRIME_DENS, max_focals=6).flatmap(stacks))
            for _ in range(2)
        )
        assert aligned(sa, sb) == oracle_align_levels(sa, sb)

    @pytest.mark.parametrize("dens", [COPRIME_DENS[:4], WIDE_PRIME_DENS[:4]], ids=["int", "wide"])
    def test_heights_are_keys_under_the_masses_scale(self, dens):
        # four wide primes have no integer common scale: the walk sums
        # Fraction keys, and the heights are the Fractions themselves
        masses = [Fraction(1, q) for q in dens]
        rest = 1 - sum(masses)
        a = SlicedAssignment([(iu((0, 8 - k)), m) for k, m in enumerate(masses + [rest])])
        b = SlicedAssignment([(iu((k, 9)), m) for k, m in enumerate([rest] + masses[::-1])])
        rows, scale = align_levels(a, b)
        assert scale == common_scale(masses + [rest])
        assert (scale is None) == (dens == WIDE_PRIME_DENS[:4])
        assert all(isinstance(h, Fraction if scale is None else int) for _, _, h in rows)
        assert aligned(a, b) == oracle_align_levels(a, b)
        assert len(rows) == 2 * len(dens) + 1


class TestProductRows:
    @given(
        (kernel_masses(den=4) | kernel_masses(den=WIDE_PRIME_DENS, max_focals=6)
         | label_masses(den=WIDE_PRIME_DENS, max_focals=6)),
        kernel_masses(den=WIDE_PRIME_DENS, max_focals=6) | label_masses(),
    )
    def test_each_row_is_the_product_of_two_masses(self, a, b):
        rows, scale = product_rows(a, b)
        assert isinstance(rows, types.GeneratorType)
        assert [(i, j, unscaled(m, scale)) for i, j, m in rows] == [
            (i, j, ma * mb)
            for i, (_, ma) in enumerate(a.entries)
            for j, (_, mb) in enumerate(b.entries)
        ]

    @pytest.mark.parametrize("dens", [COPRIME_DENS[:4], WIDE_PRIME_DENS[:4]], ids=["int", "wide"])
    def test_keys_are_under_the_square_of_the_met_scale(self, dens):
        # four wide primes have no integer common scale: the keys are the
        # Fractions themselves; only the masses are read, whatever the kind
        p, q, r, s = dens
        a = MassAssignment([(iu((0, 1)), Fraction(1, p)), (iu((0, 2)), 1 - Fraction(1, p))])
        masses_b = [Fraction(1, q), Fraction(1, r), Fraction(1, s)]
        b = MassAssignment(zip([fs("x"), fs("y"), fs("z"), EMPTY], masses_b + [1 - sum(masses_b)]))
        rows, scale = product_rows(a, b)
        assert scale == (None if dens == WIDE_PRIME_DENS[:4] else (p * q * r * s) ** 2)
        assert all(isinstance(m, Fraction if scale is None else int) for _, _, m in rows)


def assert_slices_equal_cuts(shape, n):
    """Slice k has mass h/n, so it holds over (k*h/n, (k+1)*h/n], and its
    focal element is the two-pass cut at k*h/n; a peak below 1 adds one
    empty slice on top."""
    h = shape.height
    s = slice_shape(shape, n)
    assert totals_one(s)
    if h == 0:
        assert s.slices == ((EMPTY, 1),)
        return
    step = h / n
    expected = [(oracle_level_cut(shape, step * k), step) for k in range(n)]
    if h < 1:
        expected.append((EMPTY, 1 - h))
    assert s.slices == tuple(expected)


class TestLevelCutMatchesOracle:
    """Each slice of the per-edge slicer equals the vertex-then-edge cut
    at its lower level."""

    @pytest.mark.parametrize("vertices", [
        # jump down to 0 and back up at one x: the parts on either side touch
        [(0, 1), (1, 1), (1, 0), (1, 1), (2, 1)],
        [(0, 0), (1, 1), (1, Q), (1, 1), (2, 0)],
        # two peaks over a valley at exactly a slice level
        [(0, 0), (1, 1), (2, H), (3, 1), (4, 0)],
        [(0, 0), (1, 1), (2, Q), (3, 1), (4, 0)],
        # two peaks with jumps, a lone spike and a valley that reaches 0
        [(0, 0), (0, 1), (1, 1), (1, H), (2, 0), (3, F(3, 4)), (3, 0), (3, 1), (4, 0)],
        [(0, H), (1, 0), (1, 1), (1, 0), (2, 0), (2, 1), (3, 1), (3, 0)],
    ])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_jumps_and_two_peaks(self, vertices, n):
        assert_slices_equal_cuts(PiecewiseShape(vertices), n)

    @given(piecewise_shapes(), st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_cut_equals_two_pass_cut(self, shape, n):
        assert_slices_equal_cuts(shape, n)

    @given(coprime_shapes(), st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_coprime_cut_equals_two_pass_cut(self, shape, n):
        assert_slices_equal_cuts(shape, n)


@st.composite
def wide_shapes(draw):
    """Shapes of two to six vertices over WIDE_PRIME_DENS: their crossings'
    common denominator mostly passes MAX_SCALE_BITS, so the keys of a
    slicing stay Fractions."""
    n = draw(st.integers(2, 6))
    xs = sorted(draw(st.lists(frac(-3, 3, WIDE_PRIME_DENS), min_size=n, max_size=n)))
    ms = draw(st.lists(frac(0, 1, WIDE_PRIME_DENS) | st.just(F(1)), min_size=n, max_size=n))
    return PiecewiseShape(zip(xs, ms))


def assert_keys_are_cuts(shape, n):
    """The keys slice_shape stores, unscaled under their scales, are the
    endpoints of the two-pass cut at each slice's lower level and the
    slice's mass h/n, with () and 1 - h for the empty slice on top; no
    slice focal element is built on the way."""
    s = slice_shape(shape, n)
    assert s._view is None
    h = shape.height
    cuts = [oracle_level_cut(shape, h / n * k) for k in range(n)] if h else []
    expected = [(tuple((p.lo, p.hi) for p in cut.parts), h / n) for cut in cuts]
    expected += [((), 1 - h)] if h < 1 else []
    assert [
        (tuple((unscaled(lo, s._scale), unscaled(hi, s._scale)) for lo, hi in key),
         unscaled(mass, s._mass_scale))
        for key, mass in s._keys
    ] == expected
    number = Fraction if s._scale is None else int
    assert all(type(e) is number for key, _ in s._keys for span in key for e in span)
    assert s.is_normal is (h == 1) and s.is_numeric
    assert s.to_mass() == MassAssignment(s.slices)
    return s


class TestKeysMatchTheCuts:
    @given(coprime_shapes(), st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_coprime_keys(self, shape, n):
        assert_keys_are_cuts(shape, n)

    @given(wide_shapes(), st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_keys_past_the_scale_limit(self, shape, n):
        assert_keys_are_cuts(shape, n)

    def test_a_wide_shape_keys_fractions(self):
        p, q, r = WIDE_PRIME_DENS[:3]
        shape = PiecewiseShape([(F(1, p), 0), (F(2, q), F(1, r)), (F(3, r), 1), (3, 0)])
        assert assert_keys_are_cuts(shape, 7)._scale is None
        assert assert_keys_are_cuts(TRIANGLE_A, 7)._scale is not None


class TestFuzzyFromMass:
    @given(numeric_masses(allow_empty=True))
    @settings(max_examples=300)
    def test_mu_equals_step_scan(self, m):
        f = fuzzy_from_mass(m)
        ends = sorted({e for s in f.steps for e in (s.lo, s.hi)})
        probes = ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]
        if ends:
            probes += [ends[0] - 1, ends[-1] + 1]
        for x in probes:
            assert f.mu(x) == oracle_mu(f, x)

    def test_nested_pair(self):
        f = fuzzy_from_mass(MassAssignment([(iu((1, 9)), H), (iu((3, 7)), H)]))
        assert f.steps == (
            Step(1, 3, H, False, True),
            Step(3, 7, 1),
            Step(7, 9, H, True, False),
        )

    def test_single_focal(self):
        f = fuzzy_from_mass(MassAssignment([(iu((2, 8)), 1)]))
        assert f.steps == (Step(2, 8, 1),)

    def test_product_masses_stack(self):
        q = F(1, 4)
        f = fuzzy_from_mass(
            MassAssignment([(iu((1, 9)), q), (iu((2, 8)), H), (iu((3, 7)), q)])
        )
        assert f.steps == (
            Step(1, 2, q, False, True),
            Step(2, 3, F(3, 4), False, True),
            Step(3, 7, 1),
            Step(7, 8, F(3, 4), True, False),
            Step(8, 9, q, True, False),
        )

    def test_multimodal_steps(self):
        f = fuzzy_from_mass(
            MassAssignment(
                [
                    (iu((1, 8)), H),
                    (iu((2, 4), (5, 7)), F(1, 4)),
                    (iu((5, 7)), F(1, 4)),
                ]
            )
        )
        assert f.steps == (
            Step(1, 2, H, False, True),
            Step(2, 4, F(3, 4)),
            Step(4, 5, H, True, True),
            Step(5, 7, 1),
            Step(7, 8, H, True, False),
        )

    def test_shared_endpoint_spikes(self):
        f = fuzzy_from_mass(MassAssignment([(iu((1, 4)), H), (iu((4, 9)), H)]))
        assert f.steps == (
            Step(1, 4, H, False, True),
            Step(4, 4, 1),
            Step(4, 9, H, True, False),
        )
        assert f.mu(4) == 1

    def test_empty_mass_contributes_nowhere(self):
        f = fuzzy_from_mass(MassAssignment([(iu((2, 8)), H), (EMPTY, H)]))
        assert f.steps == (Step(2, 8, H),)
        assert f.height == H

    def test_all_empty(self):
        f = fuzzy_from_mass(MassAssignment([(EMPTY, 1)]))
        assert f.is_empty
        assert f.mu(0) == 0

    def test_label_focals_rejected(self):
        with pytest.raises(TypeError):
            fuzzy_from_mass(MassAssignment([(fs("a"), 1)]))

    def test_mu_sampling(self):
        f = fuzzy_from_mass(MASS_A2)
        assert f.mu(1) == H
        assert f.mu(F(3, 2)) == H
        assert f.mu(2) == 1
        assert f.mu(3) == 1
        assert f.mu(F(9, 2)) == H
        assert f.mu(5) == H
        assert f.mu(6) == 0

    def test_slice_reconstruction_converges(self):
        n = 32
        f = fuzzy_from_mass(slice_shape(TRIANGLE_A, n).to_mass())
        for x in (F(4, 3), F(7, 3), F(10, 3), F(13, 3)):
            true_mu = (x - 1) / 2 if x <= 3 else (5 - x) / 2
            assert 0 <= f.mu(x) - true_mu < F(1, n)

    @given(numeric_masses(allow_empty=True))
    def test_height_bounded_by_nonempty_mass(self, m):
        f = fuzzy_from_mass(m)
        assert f.height <= 1 - m.empty_mass
        hullish = [p for fl in m.focals() if fl != EMPTY for p in fl.parts]
        if hullish:
            inside = hullish[0].lo
            assert f.mu(inside) > 0


class TestLeastPrejudiced:
    def test_two_level_density(self):
        d = least_prejudiced(MASS_DIR_A)
        assert d.pieces == (
            (Interval(1, 2), F(1, 6)),
            (Interval(2, 3), F(2, 3)),
            (Interval(3, 4), F(1, 6)),
        )
        assert d.integral == 1
        assert d.unassigned == 0

    def test_multipart_focal_spreads_over_total_length(self):
        d = least_prejudiced(MassAssignment([(iu((1, 2), (4, 5)), 1)]))
        assert d.pieces == ((Interval(1, 2), H), (Interval(4, 5), H))

    def test_unassigned_reported(self):
        d = least_prejudiced(MassAssignment([(iu((1, 4)), H), (EMPTY, H)]))
        assert d.pieces == ((Interval(1, 4), F(1, 6)),)
        assert d.unassigned == H
        assert d.integral == H

    def test_degenerate_support_rejected(self):
        with pytest.raises(DegenerateSupportError):
            least_prejudiced(MassAssignment([(iu((2, 2)), 1)]))

    def test_density_at(self):
        d = least_prejudiced(MASS_DIR_A)
        assert d.density_at(F(5, 2)) == F(2, 3)
        assert d.density_at(10) == 0

    @given(numeric_masses(allow_empty=True))
    def test_integral_is_assigned_mass(self, m):
        nonempty = [f for f in m.focals() if f != EMPTY]
        if any(f.length == 0 for f in nonempty):
            with pytest.raises(DegenerateSupportError):
                least_prejudiced(m)
            return
        d = least_prejudiced(m)
        assert d.integral + d.unassigned == 1


class TestSweepMatchesOracle:
    """The endpoint sweep against the quadratic reconstructions it replaced."""

    @given(numeric_masses(allow_empty=True) | COPRIME_MASSES)
    @settings(max_examples=300)
    def test_membership_equals_oracle(self, m):
        assert fuzzy_from_mass(m).steps == oracle_fuzzy_from_mass(m).steps

    @given(numeric_masses(allow_empty=True) | COPRIME_MASSES)
    @settings(max_examples=300)
    def test_density_equals_oracle(self, m):
        try:
            expected = oracle_least_prejudiced(m)
        except DegenerateSupportError:
            with pytest.raises(DegenerateSupportError):
                least_prejudiced(m)
            return
        d = least_prejudiced(m)
        assert d.pieces == expected.pieces
        assert d.unassigned == expected.unassigned

    def test_point_part_on_endpoint_and_multipart_focals(self):
        q = F(1, 4)
        m = MassAssignment(
            [(iu((1, 4)), H), (iu((4, 4), (6, 8)), q), (iu((2, 3), (5, 7)), q)]
        )
        f = fuzzy_from_mass(m)
        assert f.steps == oracle_fuzzy_from_mass(m).steps == (
            Step(1, 2, H, False, True),
            Step(2, 3, F(3, 4)),
            Step(3, 4, H, True, True),
            Step(4, 4, F(3, 4)),
            Step(5, 6, q, False, True),
            Step(6, 7, H),
            Step(7, 8, q, True, False),
        )
        d = least_prejudiced(m)
        assert d.pieces == oracle_least_prejudiced(m).pieces == (
            (Interval(1, 2), F(1, 6)),
            (Interval(2, 3), q),
            (Interval(3, 4), F(1, 6)),
            (Interval(5, 6), F(1, 12)),
            (Interval(6, 7), F(5, 24)),
            (Interval(7, 8), F(1, 8)),
        )
        assert d.integral == 1


class TestDefuzz:
    def test_max_likelihood_intervals(self):
        assert max_likelihood_interval(MASS_DIR_A) == iu((2, 3))
        assert max_likelihood_interval(MASS_DIR_B) == iu((7, 8))

    def test_max_likelihood_uniform(self):
        assert max_likelihood_interval(MassAssignment([(iu((2, 8)), 1)])) == iu((2, 8))

    def test_centre_of_gravity_values(self):
        assert centre_of_gravity(MASS_DIR_A) == F(5, 2)
        assert centre_of_gravity(MASS_DIR_B) == F(15, 2)

    def test_zero_area_rejected(self):
        with pytest.raises(ZeroAreaError):
            centre_of_gravity(MassAssignment([(EMPTY, 1)]))
        with pytest.raises(ZeroAreaError):
            centre_of_gravity(MassAssignment([(iu((2, 2)), 1)]))
        with pytest.raises(TypeError, match="centre of gravity needs numeric"):
            centre_of_gravity(MassAssignment([(fs("a"), 1)]))

    def test_centre_of_gravity_of_integer_keys_is_exact(self):
        # endpoints and masses key as integers; the moment is halved in the
        # one division, so the centre is an exact Fraction, not an integer
        m = MassAssignment([(iu((0, 1)), H), (iu((0, 3)), H)])
        assert m._scale == 1 and m._mass_scale == 2
        cog = centre_of_gravity(m)
        assert type(cog) is Fraction and cog == F(5, 4)

    @given(nested_masses(allow_empty=False))
    def test_cog_of_symmetric_mass_is_centre(self, m):
        # mirror the assignment around 0 and average: centre must be 0
        sym = combine([(H, m), (H, m.negated())])
        assert centre_of_gravity(sym) == 0

    @given(cog_masses())
    @settings(max_examples=300)
    def test_keyed_centre_of_gravity_equals_the_step_form(self, m):
        try:
            expected = oracle_centre_of_gravity(fuzzy_from_mass(m))
        except ZeroAreaError:
            with pytest.raises(ZeroAreaError):
                centre_of_gravity(m)
        else:
            cog = centre_of_gravity(m)
            assert type(cog) is Fraction and cog == expected

    @pytest.mark.parametrize("dens", [COPRIME_DENS[:4], WIDE_PRIME_DENS[:4]], ids=["int", "wide"])
    def test_centre_of_gravity_on_both_sides_of_the_scale_limit(self, dens):
        # four wide primes have no integer common scale: the keys, endpoints
        # and masses both, are the Fractions themselves, through the same sums
        masses = [F(1, q) for q in dens]
        m = MassAssignment(
            [(iu((F(-k, q), F(k + 1, q)), (k, k + F(1, q))), F(1, q)) for k, q in enumerate(dens)]
            + [(iu((F(1, dens[0]), F(1, dens[0]))), F(1, 8)), (EMPTY, 1 - sum(masses) - F(1, 8))]
        )
        assert (m._scale is None) == (m._mass_scale is None) == (dens == WIDE_PRIME_DENS[:4])
        assert centre_of_gravity(m) == oracle_centre_of_gravity(fuzzy_from_mass(m))
