import json
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fdist.cli import main
from fdist.distance import (
    assign_antidiagonal,
    assign_diagonal,
    assign_product,
    cell_nondirectional,
)
from fdist.intervals import EMPTY, iu
from fdist.mass import MassAssignment, combine, fuzzy_from_mass, slice_shape
from fdist.restriction import (
    CellMatrix,
    InvalidRestrictionError,
    Restriction,
    RestrictionKind,
    apply_type1,
    apply_type2,
    linear_combination,
    reachable_type1,
    theorem1_check,
    theorem2_witness,
)
from helpers import (
    label_masses,
    nested_masses,
    numeric_masses,
    oracle_focal_issuperset,
    oracle_reachable_type1,
    perfbench_module,
    random_triangle,
    scaled_triangle,
    shifted_shape,
)

F = Fraction
H = F(1, 2)
Q = F(1, 4)

# the benchmark's closed-form chain test (prefix-sum majorisation), used
# here only as an independent witness
reaches = perfbench_module("oracle").reaches

NESTED = MassAssignment([(iu((1, 9)), H), (iu((3, 7)), H)])
PRODUCT_2 = MassAssignment([(iu((1, 9)), Q), (iu((2, 8)), H), (iu((3, 7)), Q)])
ANTI_2 = MassAssignment([(iu((2, 8)), F(1))])

WIDE = iu(*((2 * i, 2 * i + 1) for i in range(3000)))  # 3000 parts
TINY = F(1, 3**9100)  # past the integer digit limit


class TestType1:
    def test_moves_mass_to_subset(self):
        out = apply_type1(NESTED, iu((1, 9)), iu((3, 7)), Q)
        assert out == MassAssignment([(iu((1, 9)), Q), (iu((3, 7)), F(3, 4))])

    def test_full_donor_mass_drops_donor(self):
        out = apply_type1(NESTED, iu((1, 9)), iu((3, 7)), H)
        assert out == MassAssignment([(iu((3, 7)), F(1))])

    def test_creates_absent_receiver(self):
        out = apply_type1(
            MassAssignment([(iu((1, 9)), F(1))]), iu((1, 9)), iu((3, 7)), H
        )
        assert out == NESTED

    def test_label_set_focals(self):
        m = MassAssignment([(frozenset("ab"), H), (frozenset("a"), H)])
        out = apply_type1(m, frozenset("ab"), frozenset("a"), Q)
        assert out == MassAssignment(
            [(frozenset("ab"), Q), (frozenset("a"), F(3, 4))]
        )

    def test_empty_set_receiver(self):
        out = apply_type1(NESTED, iu((3, 7)), EMPTY, H)
        assert out == MassAssignment([(iu((1, 9)), H), (EMPTY, H)])

    def test_rejects_non_superset_donor(self):
        with pytest.raises(InvalidRestrictionError):
            apply_type1(NESTED, iu((3, 7)), iu((1, 9)), Q)

    def test_rejects_zero_and_negative_move(self):
        with pytest.raises(InvalidRestrictionError):
            apply_type1(NESTED, iu((1, 9)), iu((3, 7)), 0)
        with pytest.raises(InvalidRestrictionError):
            apply_type1(NESTED, iu((1, 9)), iu((3, 7)), -1)

    def test_rejects_overdraw(self):
        with pytest.raises(InvalidRestrictionError):
            apply_type1(NESTED, iu((1, 9)), iu((3, 7)), F(3, 4))

    def test_rejects_self_move(self):
        with pytest.raises(InvalidRestrictionError):
            apply_type1(NESTED, iu((1, 9)), iu((1, 9)), Q)

    def test_rejects_missing_donor(self):
        with pytest.raises(InvalidRestrictionError):
            apply_type1(NESTED, iu((0, 20)), iu((3, 7)), Q)

    @given(nested_masses(), st.integers(1, 4))
    @settings(max_examples=50)
    def test_membership_never_increases(self, m, denom):
        donors = sorted(
            ((f, mass) for f, mass in m.entries if not f.is_empty and f.length > 0),
            key=lambda e: e[0].length,
        )
        if len(donors) < 1:
            return
        donor, held = donors[-1]
        receiver = EMPTY if len(donors) == 1 else donors[0][0]
        if donor == receiver:
            return
        x = held * F(1, denom)
        out = apply_type1(m, donor, receiver, x)
        before, after = fuzzy_from_mass(m), fuzzy_from_mass(out)
        lo, hi = donor.hull.lo, donor.hull.hi
        probes = [lo + (hi - lo) * F(k, 16) for k in range(17)]
        for p in probes:
            assert after.mu(p) <= before.mu(p)
            if not receiver.is_empty and receiver.contains_point(p):
                assert after.mu(p) == before.mu(p)

    @given(nested_masses())
    @settings(max_examples=50)
    def test_total_mass_preserved(self, m):
        donors = [(f, mass) for f, mass in m.entries if not f.is_empty]
        if not donors:
            return
        donor, held = donors[0]
        out = apply_type1(m, donor, EMPTY, held)
        assert out.total == 1


class TestMessagesStayShort:
    """A restriction refused over a long focal element or a mass past the
    integer digit limit still raises InvalidRestrictionError with a short
    message."""

    @pytest.mark.parametrize(
        "move",
        [
            lambda: apply_type1(
                MassAssignment([(WIDE, H), (iu((0, 1)), H)]),
                WIDE, iu((0, 1)), 1,
            ),
            lambda: apply_type1(
                MassAssignment([(WIDE, 1)]),
                WIDE, iu((10**6, 10**6 + 1)), H,
            ),
            lambda: apply_type2(
                MassAssignment([(WIDE, H), (iu((1, 4)), H)]),
                WIDE, iu((1, 4)), 1,
            ),
            lambda: apply_type1(
                MassAssignment([(iu((0, 1)), TINY),
                                (iu((0, 2)), 1 - TINY)]),
                iu((0, 1)), EMPTY, H,
            ),
            lambda: apply_type2(
                MassAssignment([(iu((0, 1)), TINY),
                                (iu((1, 2)), 1 - TINY)]),
                iu((0, 1)), iu((1, 2)), H,
            ),
        ],
        ids=["type1-holds-only", "type1-does-not-contain", "type2-holds-only",
             "type1-past-digit-limit", "type2-past-digit-limit"],
    )
    def test_refused_with_a_short_message(self, move):
        with pytest.raises(InvalidRestrictionError) as caught:
            move()
        assert len(str(caught.value)) < 300

    def test_short_messages_name_donor_and_mass(self):
        with pytest.raises(InvalidRestrictionError, match=r"^donor \[1,9\] holds only 0\.5$"):
            apply_type1(NESTED, iu((1, 9)), iu((3, 7)), F(3, 4))
        with pytest.raises(InvalidRestrictionError, match=r"^\[3,7\] does not contain \[1,9\]$"):
            apply_type1(NESTED, iu((3, 7)), iu((1, 9)), Q)


class TestType2:
    def test_moves_onto_union_and_intersection(self):
        m = MassAssignment([(iu((1, 7)), H), (iu((3, 9)), H)])
        out = apply_type2(m, iu((1, 7)), iu((3, 9)), H)
        assert out == NESTED

    def test_partial_move(self):
        m = MassAssignment([(iu((1, 7)), H), (iu((3, 9)), H)])
        out = apply_type2(m, iu((1, 7)), iu((3, 9)), Q)
        assert out == MassAssignment(
            [
                (iu((1, 7)), Q),
                (iu((3, 9)), Q),
                (iu((1, 9)), Q),
                (iu((3, 7)), Q),
            ]
        )

    def test_disjoint_donors_feed_empty_set(self):
        m = MassAssignment([(iu((0, 1)), H), (iu((5, 6)), H)])
        out = apply_type2(m, iu((0, 1)), iu((5, 6)), Q)
        assert out == MassAssignment(
            [
                (iu((0, 1)), Q),
                (iu((5, 6)), Q),
                (iu((0, 1), (5, 6)), Q),
                (EMPTY, Q),
            ]
        )

    def test_pre_existing_receivers_accumulate(self):
        m = MassAssignment(
            [(iu((1, 7)), Q), (iu((3, 9)), Q), (iu((1, 9)), Q), (iu((3, 7)), Q)]
        )
        out = apply_type2(m, iu((1, 7)), iu((3, 9)), Q)
        assert out == NESTED

    def test_rejects_nested_donors(self):
        with pytest.raises(InvalidRestrictionError):
            apply_type2(NESTED, iu((1, 9)), iu((3, 7)), Q)

    def test_rejects_equal_donors(self):
        m = MassAssignment([(iu((1, 7)), H), (iu((3, 9)), H)])
        with pytest.raises(InvalidRestrictionError):
            apply_type2(m, iu((1, 7)), iu((1, 7)), Q)

    def test_rejects_zero_move_and_overdraw(self):
        m = MassAssignment([(iu((1, 7)), H), (iu((3, 9)), H)])
        with pytest.raises(InvalidRestrictionError):
            apply_type2(m, iu((1, 7)), iu((3, 9)), 0)
        with pytest.raises(InvalidRestrictionError):
            apply_type2(m, iu((1, 7)), iu((3, 9)), F(3, 4))

    def test_record_applies(self):
        m = MassAssignment([(iu((1, 7)), H), (iu((3, 9)), H)])
        r = Restriction(RestrictionKind.TYPE2, iu((1, 7)), iu((3, 9)), H)
        assert r.apply(m) == NESTED
        r1 = Restriction(RestrictionKind.TYPE1, iu((1, 9)), iu((3, 7)), Q)
        assert r1.apply(NESTED) == MassAssignment(
            [(iu((1, 9)), Q), (iu((3, 7)), F(3, 4))]
        )


class TestLinearCombination:
    def test_two_slice_identity(self):
        assert linear_combination(PRODUCT_2, [NESTED, ANTI_2]) == (H, H)

    def test_target_in_basis(self):
        assert linear_combination(NESTED, [NESTED]) == (F(1),)

    def test_four_slice_diagonals_cannot_build_product(self):
        a = slice_shape(_triangle((1, 3, 5)), 4)
        b = slice_shape(_triangle((6, 8, 10)), 4)
        product = assign_product(a.to_mass(), b.to_mass()).mass
        diag = assign_diagonal(a, b).mass
        anti = assign_antidiagonal(a, b).mass
        assert linear_combination(product, [diag, anti]) is None

    def test_empty_basis(self):
        assert linear_combination(NESTED, []) is None

    def test_infeasible_for_unrelated_masses(self):
        other = MassAssignment([(iu((100, 200)), F(1))])
        assert linear_combination(PRODUCT_2, [other]) is None

    @given(
        numeric_masses(),
        numeric_masses(),
        numeric_masses(),
        st.integers(0, 4),
        st.integers(0, 4),
        st.integers(0, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_recovers_convex_combinations(self, m1, m2, m3, w1, w2, w3):
        if w1 + w2 + w3 == 0:
            return
        total = w1 + w2 + w3
        weights = [F(w, total) for w in (w1, w2, w3)]
        target = combine(list(zip(weights, (m1, m2, m3))))
        coeffs = linear_combination(target, [m1, m2, m3])
        assert coeffs is not None
        assert sum(coeffs) == 1
        assert all(c >= 0 for c in coeffs)
        assert combine(list(zip(coeffs, (m1, m2, m3)))) == target


@st.composite
def chain_pairs(draw):
    """One chain of nested intervals, widest first and sometimes ending in
    the empty set, with two masses on it."""
    depth = draw(st.integers(1, 6))
    los = sorted(draw(st.lists(st.integers(0, 20), min_size=depth, max_size=depth, unique=True)))
    his = sorted(draw(st.lists(st.integers(21, 40), min_size=depth, max_size=depth, unique=True)))
    chain = [iu((lo, hi)) for lo, hi in zip(los, reversed(his))]
    if draw(st.booleans()):
        chain.append(EMPTY)

    def masses():
        weights = draw(st.lists(st.integers(0, 3), min_size=len(chain), max_size=len(chain)))
        assume(sum(weights))
        return {f: F(w, sum(weights)) for f, w in zip(chain, weights) if w}

    return chain, masses(), masses()


# Twelve distinct primes just past 2**40: the masses of two chains over
# them have a common denominator of 80 bits or more, so the flow's
# integer capacities run far past 64 bits.
PRIMES_2_40 = (
    1099511627791, 1099511627803, 1099511627831, 1099511627873,
    1099511627891, 1099511627917, 1099511627933, 1099511627953,
    1099511628029, 1099511628053, 1099511628079, 1099511628119,
)


@st.composite
def prime_chain_pairs(draw):
    """Two masses on one chain of nested intervals, each mass but the last
    of a side over its own prime denominator; the target either follows
    from the source by type-1 moves inward, each a share over a new prime,
    or is drawn on its own."""
    depth = draw(st.integers(2, 6))
    chain = [iu((k, 20 - k)) for k in range(depth)]  # widest first
    primes = iter(draw(st.permutations(PRIMES_2_40)))

    def masses():
        share = [F(draw(st.integers(1, p // (2 * depth))), p) for p in
                 (next(primes) for _ in range(depth - 1))]
        return share + [1 - sum(share)]

    src = masses()
    if draw(st.booleans()):
        dst = masses()
    else:
        dst = list(src)
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, depth - 2))
            j = draw(st.integers(i + 1, depth - 1))
            p = next(primes)
            moved = dst[i] * F(draw(st.integers(1, p - 1)), p)
            dst[i] -= moved
            dst[j] += moved
    pair = tuple(MassAssignment((f, m) for f, m in zip(chain, side) if m) for side in (src, dst))
    assume(lcm(*(m.denominator for side in pair for _, m in side.entries)) > 2**64)
    return pair


class TestReachability:
    def test_neither_assignment_reaches_the_other(self):
        assert not reachable_type1(NESTED, PRODUCT_2)
        assert not reachable_type1(PRODUCT_2, NESTED)

    def test_identity(self):
        assert reachable_type1(PRODUCT_2, PRODUCT_2)

    def test_single_split(self):
        whole = MassAssignment([(iu((1, 9)), F(1))])
        assert reachable_type1(whole, NESTED)
        assert not reachable_type1(NESTED, whole)

    def test_everything_reaches_total_ignorance(self):
        sink = MassAssignment([(EMPTY, F(1))])
        assert reachable_type1(NESTED, sink)
        assert not reachable_type1(sink, NESTED)

    def test_label_sets(self):
        src = MassAssignment([(frozenset("abc"), F(1))])
        dst = MassAssignment([(frozenset("ab"), H), (frozenset("c"), H)])
        assert reachable_type1(src, dst)
        assert not reachable_type1(dst, src)

    @given(nested_masses(), nested_masses())
    @settings(max_examples=40, deadline=None)
    def test_reachable_targets_live_inside_sources(self, src, dst):
        if reachable_type1(src, dst):
            src_focals = [f for f, _ in src.entries]
            for f, _ in dst.entries:
                assert any(focal_contains(s, f) for s in src_focals)

    @given(nested_masses())
    @settings(max_examples=40, deadline=None)
    def test_type1_moves_stay_reachable(self, m):
        donors = [(f, mass) for f, mass in m.entries if not f.is_empty]
        if not donors:
            return
        donor, held = donors[0]
        moved = apply_type1(m, donor, EMPTY, held * H)
        assert reachable_type1(m, moved)

    def test_unequal_totals_never_reach(self):
        # both sums pass the mass tolerance, but no routing meets both
        over = MassAssignment([(iu((0, 4)), 1 + F(1, 10**10))])
        one = MassAssignment([(iu((0, 4)), F(1))])
        assert not reachable_type1(over, one)
        assert not reachable_type1(one, over)

    @given(
        st.one_of(
            st.tuples(numeric_masses(), numeric_masses()),
            st.tuples(label_masses(), label_masses()),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_flow_equals_lp_feasibility(self, pair):
        src, dst = pair
        assert reachable_type1(src, dst) == oracle_reachable_type1(src, dst)

    @given(prime_chain_pairs())
    @settings(max_examples=100, deadline=None)
    def test_large_prime_denominators_match_lp_feasibility(self, pair):
        src, dst = pair
        assert reachable_type1(src, dst) == oracle_reachable_type1(src, dst)

    @given(chain_pairs())
    @settings(max_examples=150, deadline=None)
    def test_chains_match_prefix_sums(self, case):
        chain, src, dst = case
        got = reachable_type1(MassAssignment(src.items()), MassAssignment(dst.items()))
        assert got == reaches(src, dst, chain)

    def test_forty_focal_chain_restrict_check(self, capsys, tmp_path):
        # a restrict-check on one 40-set chain, as the solve benchmark
        # runs at 6-16; every reachability answer checked in closed form
        rng = random.Random(40)
        los = sorted(rng.sample(range(0, 60), 40))
        his = sorted(rng.sample(range(61, 120), 40), reverse=True)
        chain = [iu((lo, hi)) for lo, hi in zip(los, his)]
        bases = []
        for _ in range(2):
            weights = [rng.randint(0, 5) for _ in chain]
            bases.append({f: F(w, sum(weights)) for f, w in zip(chain, weights) if w})
        bases.append({chain[0]: F(1)})  # reaches every mass on the chain
        target = combine([(F(1, 3), MassAssignment(b.items())) for b in bases])
        sets = {"T": dict(target.entries), "B0": bases[0], "B1": bases[1], "B2": bases[2]}
        doc = {"sets": [
            {"name": name, "kind": "mass", "entries": [
                {"focal": [[str(f.parts[0].lo), str(f.parts[0].hi)]], "mass": str(m)}
                for f, m in masses.items()
            ]}
            for name, masses in sets.items()
        ]}
        spec = tmp_path / "chain.json"
        spec.write_text(json.dumps(doc))
        assert main(["restrict-check", str(spec), "T", "--basis", "B0,B1,B2"]) == 0
        out = json.loads(capsys.readouterr().out)
        coefficients = [F(c) for c in out["coefficients"]]
        assert combine(list(zip(coefficients, (MassAssignment(b.items()) for b in bases)))) == target
        for name in ("B0", "B1", "B2"):
            assert out["reachability"][name] == {
                "basis_to_target": reaches(sets[name], sets["T"], chain),
                "target_to_basis": reaches(sets["T"], sets[name], chain),
            }
        assert out["reachability"]["B2"]["basis_to_target"]


def focal_contains(a, b):
    return oracle_focal_issuperset(a, b)


def _triangle(xs):
    from fdist.mass import PiecewiseShape

    lo, peak, hi = xs
    return PiecewiseShape([(lo, 0), (peak, 1), (hi, 0)])


class TestTheoremChecks:
    def test_isosceles_pair_is_totally_ordered(self):
        a = slice_shape(_triangle((1, 3, 5)), 4)
        b = slice_shape(_triangle((6, 8, 10)), 4)
        matrix = CellMatrix.from_sliced(a, b, cell_nondirectional)
        assert theorem1_check(matrix)
        assert theorem2_witness(matrix) is None

    def test_one_by_one_matrix(self):
        matrix = CellMatrix.build([iu((0, 1))], [iu((5, 6))], cell_nondirectional)
        assert theorem1_check(matrix)
        assert theorem2_witness(matrix) is None

    def test_skewed_pair_has_overlap_witness(self):
        a = slice_shape(_triangle((0, 1, 4)), 4)
        b = slice_shape(_triangle((6, 7, 10)), 4)
        matrix = CellMatrix.from_sliced(a, b, cell_nondirectional)
        assert not theorem1_check(matrix)
        witness = theorem2_witness(matrix)
        assert witness is not None
        (i, j), (k, l) = witness
        x, y = matrix.cells[i][j], matrix.cells[k][l]
        assert x.intersects(y)
        assert not x.issuperset(y) and not y.issuperset(x)

    def test_isosceles_sweep(self):
        rng = random.Random(20240817)
        for _ in range(10):
            a = random_triangle(rng, isosceles=True)
            scale = F(rng.randint(1, 8), 4)
            gap = F(rng.randint(1, 40), 2)
            width = a.vertices[-1][0] - a.vertices[0][0]
            b = scaled_triangle(a, scale, gap + width * (1 + scale))
            for n in (2, 4, 8):
                matrix = CellMatrix.from_sliced(
                    slice_shape(a, n), slice_shape(b, n), cell_nondirectional
                )
                assert theorem1_check(matrix)

    def test_skewed_sweep(self):
        rng = random.Random(20240818)
        for _ in range(10):
            a = random_triangle(rng, isosceles=False)
            width = a.vertices[-1][0] - a.vertices[0][0]
            gap = F(rng.randint(1, 40), 2)
            b = shifted_shape(a, width + gap)
            for n in (2, 4, 8):
                matrix = CellMatrix.from_sliced(
                    slice_shape(a, n), slice_shape(b, n), cell_nondirectional
                )
                assert theorem2_witness(matrix) is not None
