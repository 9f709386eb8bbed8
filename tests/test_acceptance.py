"""Acceptance checks: the package's contract, one test per criterion.

Run ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion (add ``-s`` to also see the explicit [C##] PASS lines). Every
numeric comparison here is exact rational equality, which is stricter
than the advertised 1e-9 tolerance; randomized sweeps use fixed seeds so
results are reproducible.
"""

import random
from fractions import Fraction as F

import numpy as np

from fdist.distance import Strategy, distance
from fdist.intervals import EMPTY, IntervalUnion, iu
from fdist.mass import (
    DiscreteFuzzySet,
    MassAssignment,
    PiecewiseShape,
    Step,
    centre_of_gravity,
    chain_order,
    mass_from_discrete,
    max_likelihood_interval,
    slice_shape,
)
from fdist.restriction import linear_combination
from fdist.unification import TruthAssignment, TruthLabel, unify_maximal, unify_product

from helpers import (
    kernel_cell,
    oracle_overlap_witness,
    random_triangle,
    scaled_triangle,
    shifted_shape,
)

H = F(1, 2)
Q = F(1, 4)
TOLERANCE = F(1, 10**9)

TRIANGLE_A = PiecewiseShape([(1, 0), (3, 1), (5, 0)])
TRIANGLE_B = PiecewiseShape([(6, 0), (8, 1), (10, 0)])

CLAIM = DiscreteFuzzySet({"a": 1, "b": F(7, 10), "c": F(1, 5)})
EVIDENCE = DiscreteFuzzySet({"a": F(9, 10), "b": F(3, 5), "c": F(1, 10)})

NARROW_A = MassAssignment([(iu((1, 4)), H), (iu((2, 3)), H)])
NARROW_B = MassAssignment([(iu((6, 9)), H), (iu((7, 8)), H)])

SUB_A = MassAssignment([(iu((1, 4)), H), (EMPTY, H)])
BIMODAL_A = MassAssignment([(iu((1, 4)), H), (iu((1, 2), (3, 4)), H)])
FORK_A = MassAssignment([(iu((1, 5)), H), (iu((1, 2), (4, 5)), H)])
FORK_SKEW_A = MassAssignment(
    [(iu((1, 5)), H), (iu((1, 2), (4, 5)), Q), (iu((1, 2)), Q)]
)

PROD_2 = MassAssignment([(iu((1, 9)), Q), (iu((2, 8)), H), (iu((3, 7)), Q)])
DIAG_2 = MassAssignment([(iu((1, 9)), H), (iu((3, 7)), H)])
ANTI_2 = MassAssignment([(iu((2, 8)), F(1))])
PROD_4 = MassAssignment(
    [
        (iu((1, 9)), F(1, 16)),
        (iu((F(3, 2), F(17, 2))), F(2, 16)),
        (iu((2, 8)), F(3, 16)),
        (iu((F(5, 2), F(15, 2))), F(4, 16)),
        (iu((3, 7)), F(3, 16)),
        (iu((F(7, 2), F(13, 2))), F(2, 16)),
        (iu((4, 6)), F(1, 16)),
    ]
)
DIAG_4 = MassAssignment(
    [(iu((1, 9)), Q), (iu((2, 8)), Q), (iu((3, 7)), Q), (iu((4, 6)), Q)]
)
ANTI_4 = MassAssignment([(iu((F(5, 2), F(15, 2))), F(1))])


def ok(n, label):
    print(f"[C{n:02d}] PASS — {label}")


def truth(**kwargs):
    names = {
        "true": TruthLabel.TRUE,
        "false": TruthLabel.FALSE,
        "both": TruthLabel.BOTH,
        "unknown": TruthLabel.UNKNOWN,
    }
    return TruthAssignment({names[k]: v for k, v in kwargs.items()})


def test_c01_discrete_mass_assignments():
    """Level-set masses of the worked discrete claim and evidence sets."""
    assert mass_from_discrete(CLAIM) == MassAssignment(
        [
            (frozenset({"a"}), F(3, 10)),
            (frozenset({"a", "b"}), H),
            (frozenset({"a", "b", "c"}), F(1, 5)),
        ]
    )
    assert mass_from_discrete(EVIDENCE) == MassAssignment(
        [
            (frozenset({"a"}), F(3, 10)),
            (frozenset({"a", "b"}), H),
            (frozenset({"a", "b", "c"}), F(1, 10)),
            (frozenset(), F(1, 10)),
        ]
    )
    ok(1, "discrete claim/evidence mass assignments")


def test_c02_truth_unification_routings():
    """Product and maximal routing of claim-against-evidence truth mass."""
    m_a, m_g = mass_from_discrete(CLAIM), mass_from_discrete(EVIDENCE)
    assert unify_product(m_a, m_g) == truth(
        true=F(67, 100), both=F(23, 100), unknown=F(1, 10)
    )
    assert unify_maximal(m_a, m_g) == truth(true=H, both=F(2, 5), unknown=F(1, 10))
    ok(2, "semantic unification, product and maximal routing")


def test_c03_product_distance_masses():
    """Independent-routing distance masses at two and four slices."""
    d2 = distance(TRIANGLE_A, TRIANGLE_B, strategy=Strategy.PRODUCT, n_slices=2)
    assert d2.mass == PROD_2
    d4 = distance(TRIANGLE_A, TRIANGLE_B, strategy=Strategy.PRODUCT, n_slices=4)
    assert d4.mass == PROD_4
    ok(3, "product-strategy distance masses (2 and 4 slices)")


def test_c04_paired_distance_masses():
    """Level-paired distance masses: diagonal at 2 and 4 slices,
    anti-diagonal at 2."""
    d2 = distance(TRIANGLE_A, TRIANGLE_B, strategy=Strategy.DIAGONAL, n_slices=2)
    assert d2.mass == DIAG_2
    d4 = distance(TRIANGLE_A, TRIANGLE_B, strategy=Strategy.DIAGONAL, n_slices=4)
    assert d4.mass == DIAG_4
    a2 = distance(TRIANGLE_A, TRIANGLE_B, strategy=Strategy.ANTIDIAGONAL, n_slices=2)
    assert a2.mass == ANTI_2
    ok(4, "diagonal and anti-diagonal distance masses")


def test_c05_mixture_and_infeasibility():
    """The 2-slice product mass is the even mixture of the two paired
    masses; the 4-slice product mass is no mixture of them at all."""
    coefficients = linear_combination(PROD_2, [DIAG_2, ANTI_2])
    assert coefficients == (H, H)
    assert linear_combination(PROD_4, [DIAG_4, ANTI_4]) is None
    ok(5, "mixture recovery at 2 slices, infeasibility at 4")


def _nested_normal_mass(rng: random.Random) -> MassAssignment:
    lo = F(rng.randint(-16, 0), 2)
    hi = lo + F(rng.randint(4, 20), 2)
    chain = [(lo, hi)]
    for _ in range(rng.randint(0, 3)):
        lo2 = chain[-1][0] + F(rng.randint(0, 8), 4)
        hi2 = chain[-1][1] - F(rng.randint(0, 8), 4)
        if lo2 > hi2:
            break
        if (lo2, hi2) != chain[-1]:
            chain.append((lo2, hi2))
    weights = [rng.randint(1, 4) for _ in chain]
    total = sum(weights)
    return MassAssignment((iu(p), F(w, total)) for p, w in zip(chain, weights))


def test_c06_directional_distance_antisymmetry():
    """Signed distance: the worked narrow-triangle example, its reverse
    as the exact negation, and antisymmetry over 200 random normal
    pairs under both product and diagonal strategies."""
    fwd = distance(NARROW_A, NARROW_B, directional=True, strategy=Strategy.DIAGONAL)
    assert fwd.mass == MassAssignment([(iu((2, 8)), H), (iu((4, 6)), H)])
    assert fwd.fuzzy.steps == (
        Step(2, 4, H, False, True),
        Step(4, 6, F(1)),
        Step(6, 8, H, True, False),
    )
    rev = distance(NARROW_B, NARROW_A, directional=True, strategy=Strategy.DIAGONAL)
    assert rev.mass == MassAssignment([(iu((-8, -2)), H), (iu((-6, -4)), H)])
    assert rev.mass == fwd.mass.negated()

    rng = random.Random(20260406)
    for _ in range(200):
        a, b = _nested_normal_mass(rng), _nested_normal_mass(rng)
        for strategy in (Strategy.PRODUCT, Strategy.DIAGONAL):
            ab = distance(a, b, directional=True, strategy=strategy).mass
            ba = distance(b, a, directional=True, strategy=strategy).mass
            assert ab == ba.negated()
    ok(6, "directional distance and antisymmetry (200 random pairs)")


def test_c07_subnormal_product_distance():
    """Distance from a half-confident set: four quarter-mass cells with
    an empty-set row, and a fuzzy result peaking at one half."""
    d = distance(SUB_A, NARROW_B, strategy=Strategy.PRODUCT)
    assert d.mass == MassAssignment(
        [(iu((2, 8)), Q), (iu((3, 7)), Q), (EMPTY, H)]
    )
    assert d.mass.mass_of(EMPTY) == H
    assert d.fuzzy.height == H
    assert d.fuzzy.steps == (
        Step(2, 3, Q, False, True),
        Step(3, 7, H),
        Step(7, 8, Q, True, False),
    )
    ok(7, "subnormal input: empty-set mass and half-height fuzzy distance")


def test_c08_multimodal_distances():
    """Distances from sets with split level regions: unimodal collapse,
    a bimodal result, and the three-entry skewed mixture with its
    3/4-height shoulder."""
    d_bimodal = distance(BIMODAL_A, NARROW_B, strategy=Strategy.DIAGONAL)
    assert d_bimodal.mass == MassAssignment([(iu((2, 8)), H), (iu((3, 7)), H)])

    d_fork = distance(FORK_A, NARROW_B, strategy=Strategy.DIAGONAL)
    assert d_fork.mass == MassAssignment(
        [(iu((1, 8)), H), (iu((2, 4), (5, 7)), H)]
    )
    assert d_fork.fuzzy.steps == (
        Step(1, 2, H, False, True),
        Step(2, 4, F(1)),
        Step(4, 5, H, True, True),
        Step(5, 7, F(1)),
        Step(7, 8, H, True, False),
    )

    d_skew = distance(FORK_SKEW_A, NARROW_B, strategy=Strategy.DIAGONAL)
    assert d_skew.mass == MassAssignment(
        [(iu((1, 8)), H), (iu((2, 4), (5, 7)), Q), (iu((5, 7)), Q)]
    )
    assert d_skew.fuzzy.steps == (
        Step(1, 2, H, False, True),
        Step(2, 4, F(3, 4)),
        Step(4, 5, H, True, True),
        Step(5, 7, F(1)),
        Step(7, 8, H, True, False),
    )
    ok(8, "multimodal inputs: unimodal, bimodal, and skewed-mixture distances")


def test_c09_defuzzification_summaries():
    """Max-likelihood intervals and centres of gravity for the narrow
    triangles and their signed distance."""
    assert max_likelihood_interval(NARROW_A) == iu((2, 3))
    assert max_likelihood_interval(NARROW_B) == iu((7, 8))
    d = distance(NARROW_A, NARROW_B, directional=True, strategy=Strategy.DIAGONAL)
    assert max_likelihood_interval(d.mass) == iu((4, 6))

    cog_a = centre_of_gravity(NARROW_A)
    cog_b = centre_of_gravity(NARROW_B)
    cog_d = centre_of_gravity(d.mass)
    assert abs(cog_a - F(5, 2)) <= TOLERANCE and cog_a == F(5, 2)
    assert abs(cog_b - F(15, 2)) <= TOLERANCE and cog_b == F(15, 2)
    assert abs(cog_d - 5) <= TOLERANCE and cog_d == 5
    ok(9, "max-likelihood intervals and centres of gravity")


def _product_cells(a: PiecewiseShape, b: PiecewiseShape, n: int) -> MassAssignment:
    """Every distinct cell of a and b sliced at n: their product distance."""
    return distance(slice_shape(a, n), slice_shape(b, n), strategy=Strategy.PRODUCT).mass


def test_c10_nested_and_witness_cell_structure():
    """Cell structure: similar isosceles pairs give fully nested cells,
    their product distance a chain (50 random pairs at 2, 4, and 8
    slices); congruent skewed pairs always contain a properly overlapping
    witness pair of cells."""
    rng = random.Random(20261010)
    for _ in range(50):
        base = random_triangle(rng, isosceles=True)
        scale = F(rng.randint(1, 8), rng.randint(1, 4))
        shift = F(rng.randint(-80, 80), 2)
        other = scaled_triangle(base, scale, shift)
        for n in (2, 4, 8):
            assert chain_order(_product_cells(base, other, n))[1] is None

    for _ in range(50):
        base = random_triangle(rng, isosceles=False)
        width = base.vertices[-1][0] - base.vertices[0][0]
        apart = shifted_shape(base, width + F(rng.randint(1, 40), 4))
        for n in (2, 4, 8):
            assert oracle_overlap_witness(_product_cells(base, apart, n).focals()) is not None
    ok(10, "nested cells for similar isosceles pairs; witnesses for skewed pairs")


def _grid_units(u: IntervalUnion) -> np.ndarray:
    parts = []
    for part in u.parts:
        lo, hi = part.lo * 20, part.hi * 20
        assert lo.denominator == 1 and hi.denominator == 1
        parts.append(np.arange(int(lo), int(hi) + 1, dtype=np.int64))
    return np.concatenate(parts)


def _check_against_grid(result: IntervalUnion, diffs: np.ndarray):
    covered = np.zeros(diffs.shape, dtype=bool)
    for part in result.parts:
        lo, hi = part.lo * 20, part.hi * 20
        assert lo.denominator == 1 and hi.denominator == 1
        mask = (diffs >= int(lo)) & (diffs <= int(hi))
        inside = diffs[mask]
        assert inside.size, f"part {part} has no sampled witness"
        assert inside[0] - int(lo) <= 1, f"loose lower endpoint in {part}"
        assert int(hi) - inside[-1] <= 1, f"loose upper endpoint in {part}"
        covered |= mask
    assert covered.all(), "sampled difference outside the computed cell"


def test_c11_cell_operators_match_grid_oracle():
    """Cells, directional or not, as the distance kernel computes them
    (kernel_cell), agree with a brute-force 0.05-step grid oracle on 500
    random interval-union pairs: sampled differences land inside the cell
    and every endpoint is tight to within one step."""
    rng = random.Random(20261111)
    for _ in range(500):
        unions = []
        for _ in range(2):
            parts = []
            for _ in range(rng.randint(1, 2)):
                lo = F(rng.randint(-160, 120), 20)
                parts.append((lo, lo + F(rng.randint(0, 60), 20)))
            unions.append(iu(*parts))
        a, b = unions
        xs, ys = _grid_units(a), _grid_units(b)
        diffs = np.unique(np.subtract.outer(ys, xs))
        _check_against_grid(kernel_cell(a, b, True), diffs)
        _check_against_grid(kernel_cell(a, b, False), np.unique(np.abs(diffs)))
    ok(11, "cell operators match the 0.05-grid oracle on 500 random pairs")
