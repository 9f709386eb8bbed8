import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdist.intervals import (
    EMPTY,
    MIXED_KINDS,
    Interval,
    IntervalUnion,
    common_scale,
    iu,
)
from fdist.mass import (
    DEFAULT_SLICES,
    MAX_SLICES,
    DegenerateSupportError,
    DiscreteFuzzySet,
    LabelSet,
    MassAssignment,
    NumericFuzzySet,
    PiecewiseShape,
    SlicedAssignment,
    Step,
    ZeroAreaError,
    align_levels,
    as_focal,
    centre_of_gravity,
    combine,
    fuzzy_from_mass,
    key_order,
    least_prejudiced,
    mass_from_discrete,
    max_likelihood_interval,
    slice_shape,
)
from helpers import (
    COPRIME_DENS,
    WIDE_PRIME_DENS,
    aligned,
    coprime_shapes,
    interval_unions,
    kernel_masses,
    label_masses,
    nested_masses,
    numeric_masses,
    oracle_align_levels,
    oracle_focal_intersection,
    oracle_focal_intersects,
    oracle_focal_is_empty,
    oracle_focal_issuperset,
    oracle_focal_key,
    oracle_focal_union,
    oracle_format_focal,
    oracle_fuzzy_from_mass,
    oracle_least_prejudiced,
    oracle_level_cut,
    oracle_mu,
    piecewise_shapes,
    stacks,
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
        third = F(3333333333, 10**10)
        m = MassAssignment([(iu((i, i)), third) for i in range(3)], tolerance=F(1, 10**6))
        assert m.total == 3 * third

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
        assert m.total == 1
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
        assert s.top == 1

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
        assert s.to_mass().total == 1
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
        assert s.top == 1

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
        assert r.top == 1

    @given(
        st.one_of(
            nested_masses().map(SlicedAssignment.from_mass),
            st.tuples(piecewise_shapes(), st.integers(1, 12)).map(lambda t: slice_shape(*t)),
        ),
        st.data(),
    )
    def test_constructor_round_trips_and_rejects_invalid_stacks(self, s, data):
        rebuilt = SlicedAssignment(s.slices)
        assert rebuilt == s and rebuilt.top == s.top == 1
        with pytest.raises(ValueError, match="at least one slice"):
            SlicedAssignment(())
        k = data.draw(st.integers(0, len(s.slices) - 1))
        f, mass = s.slices[k]

        def with_mass(m):
            return s.slices[:k] + ((f, m),) + s.slices[k + 1 :]

        with pytest.raises(ValueError, match="is not positive"):
            SlicedAssignment(with_mass(data.draw(st.sampled_from([0, -mass]))))
        excess = data.draw(st.integers(1, 8).map(lambda j: F(j, 10**9)))
        with pytest.raises(ValueError, match="over 1"):
            SlicedAssignment(with_mass(mass + excess))


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


def assert_slices_equal_cuts(shape, n):
    """Slice k has mass h/n, so it holds over (k*h/n, (k+1)*h/n], and its
    focal element is the two-pass cut at k*h/n; a peak below 1 adds one
    empty slice on top."""
    h = shape.height
    s = slice_shape(shape, n)
    assert s.top == 1
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
        assert d.integral + d.unassigned == m.total


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
        assert centre_of_gravity(fuzzy_from_mass(MASS_DIR_A)) == F(5, 2)
        assert centre_of_gravity(fuzzy_from_mass(MASS_DIR_B)) == F(15, 2)

    def test_zero_area_rejected(self):
        with pytest.raises(ZeroAreaError):
            centre_of_gravity(NumericFuzzySet(()))
        with pytest.raises(ZeroAreaError):
            centre_of_gravity(NumericFuzzySet((Step(2, 2, 1),)))

    def test_centre_of_gravity_of_integer_steps_is_exact(self):
        # hand-built steps keep their ints; the moment is halved after the sum
        cog = centre_of_gravity(NumericFuzzySet((Step(0, 1, 1), Step(1, 3, 2))))
        assert type(cog) is Fraction and cog == F(17, 10)

    @given(nested_masses(allow_empty=False))
    def test_cog_of_symmetric_mass_is_centre(self, m):
        # mirror the assignment around 0 and average: centre must be 0
        sym = combine([(H, m), (H, m.negated())])
        assert centre_of_gravity(fuzzy_from_mass(sym)) == 0
