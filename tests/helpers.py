"""Shared builders and brute-force oracles for the test suite."""

import json
import math
import random
import sys
import types
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from collections import deque
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from math import lcm
from operator import add
from pathlib import Path

from hypothesis import assume
from hypothesis import strategies as st

from fdist.distance import Strategy, distance
from fdist.exactlp import Infeasible, Unbounded, feasible, min_cost_flow
from fdist.intervals import (
    DEFAULT_TOLERANCE,
    EMPTY,
    MIXED_KINDS,
    ONE,
    ZERO,
    Interval,
    IntervalUnion,
    as_fraction,
    brief,
    common_scale,
    cut,
    digit_limit,
    echo,
    format_fraction,
    iu,
    merge_spans,
    scaled,
    unscaled,
)
from fdist.mass import (
    DegenerateSupportError,
    Density,
    DiscreteFuzzySet,
    MassAssignment,
    NumericFuzzySet,
    PiecewiseShape,
    SlicedAssignment,
    Step,
    ZeroAreaError,
    align_levels,
    as_focal,
    combine,
    key_order,
)
from fdist.specfile import (
    _BOOL,
    _EMPTY_ENTRY,
    _ENTRY,
    _LABEL,
    _PART,
    _STEP,
    KINDS,
    Rows,
    SpecError,
    SpecSet,
    _expect_keys,
    _object,
    _rows,
)
from fdist.unification import DEFAULT_ORDER, TruthAssignment, TruthLabel

F = Fraction


# Pairwise coprime denominators: fractions over them share no factor, so
# the common denominator of a set of them grows with every one added.
COPRIME_DENS = (7, 11, 13, 17, 19, 23)
# Primes just past 2**20: any four of them have a common denominator of
# over 80 bits, past intervals.MAX_SCALE_BITS, so sort keys stay Fractions.
WIDE_PRIME_DENS = (1048583, 1048589, 1048601, 1048609, 1048613, 1048627)


def frac(lo=-10, hi=10, den=4):
    """Fractions k/den within [lo, hi]; a tuple den draws one of its
    denominators for each fraction."""
    if isinstance(den, tuple):
        return st.sampled_from(den).flatmap(lambda d: frac(lo, hi, d))
    return st.integers(lo * den, hi * den).map(lambda k: F(k, den))


@st.composite
def interval_unions(draw, max_parts=3, lo=-10, hi=10, den=4, allow_empty=False):
    n = draw(st.integers(0 if allow_empty else 1, max_parts))
    parts = []
    for _ in range(n):
        a = draw(frac(lo, hi, den))
        b = draw(frac(lo, hi, den))
        if a > b:
            a, b = b, a
        parts.append((a, b))
    return iu(*parts)


@st.composite
def numeric_masses(draw, max_focals=4, allow_empty=True, lo=-8, hi=8, den=4):
    k = draw(st.integers(1, max_focals))
    focals = [
        draw(interval_unions(max_parts=2, lo=lo, hi=hi, den=den, allow_empty=allow_empty))
        for _ in range(k)
    ]
    weights = [draw(st.integers(1, 8)) for _ in range(k)]
    total = sum(weights)
    return MassAssignment((f, F(w, total)) for f, w in zip(focals, weights))


def _den_masses(draw, k, den) -> list:
    """k positive masses summing to 1, all but the last over den (a
    denominator or a tuple of them)."""
    dens = den if isinstance(den, tuple) else (den,)
    masses = []
    for _ in range(k - 1):  # each under 1/(2k) or 1/4, so the last stays positive
        q = draw(st.sampled_from(dens))
        masses.append(F(draw(st.integers(1, max(1, q // (2 * k)))), q))
    return masses + [1 - sum(masses)]


@st.composite
def label_masses(draw, allow_empty=True, den=None, max_focals=3):
    """Masses over one to max_focals label sets drawn from {a, b, c}:
    weights over their sum, or, given den, masses over den as kernel_masses
    draws them. Over WIDE_PRIME_DENS their common mass scale passes
    intervals.MAX_SCALE_BITS as the focal count grows."""
    k = draw(st.integers(1, max_focals))
    focals = [
        draw(st.frozensets(st.sampled_from("abc"), min_size=0 if allow_empty else 1))
        for _ in range(k)
    ]
    if den is not None:
        return MassAssignment(zip(focals, _den_masses(draw, k, den)))
    weights = [draw(st.integers(1, 8)) for _ in range(k)]
    total = sum(weights)
    return MassAssignment((f, F(w, total)) for f, w in zip(focals, weights))


@st.composite
def wide_masses(draw, labels: bool):
    """Masses on five or six distinct label sets or numeric focal elements,
    the empty set among them at times, all but the last over distinct
    WIDE_PRIME_DENS: at least four such denominators, so no integer mass
    scale fits intervals.MAX_SCALE_BITS."""
    k = draw(st.integers(5, 6))
    if labels:
        focal = st.frozensets(st.sampled_from("abc"))
    else:
        focal = interval_unions(max_parts=2, lo=-8, hi=8, allow_empty=True)
    focals = draw(st.lists(focal, min_size=k, max_size=k, unique=True))
    primes = draw(st.permutations(WIDE_PRIME_DENS))[:k - 1]
    masses = [F(draw(st.integers(1, p // (2 * k))), p) for p in primes]
    return MassAssignment(zip(focals, masses + [1 - sum(masses)]))


@st.composite
def kernel_masses(draw, den=4, max_focals=4):
    """Masses for the distance kernel: one to max_focals focal elements of
    up to two parts, the empty set among them at times, with endpoints
    and masses both over den (a denominator or a tuple of them). Over
    WIDE_PRIME_DENS the common denominators of the endpoints and of the
    masses each pass intervals.MAX_SCALE_BITS as the focal count grows."""
    k = draw(st.integers(1, max_focals))
    focals = [
        draw(interval_unions(max_parts=2, lo=-8, hi=8, den=den, allow_empty=True))
        for _ in range(k)
    ]
    return MassAssignment(zip(focals, _den_masses(draw, k, den)))


@st.composite
def combination_cases(draw):
    """(target, basis) for linear_combination, all label sets or all
    numeric, the empty set among the focal elements at times. Each set
    draws its own denominators for masses and endpoints: quarters,
    COPRIME_DENS or WIDE_PRIME_DENS, so endpoint and mass scales mix on
    both sides of MAX_SCALE_BITS. The basis sets either draw their focal
    elements from one shared pool or each on their own, and may hold a
    convex combination of the others, so that the target, a convex
    combination of them or drawn on its own, may have many."""
    labels = draw(st.booleans())
    dens = st.sampled_from((4, COPRIME_DENS, WIDE_PRIME_DENS))
    if labels:
        focal = st.frozensets(st.sampled_from("abc"))
    else:
        focal = dens.flatmap(
            lambda den: interval_unions(max_parts=2, lo=-8, hi=8, den=den, allow_empty=True)
        )

    def drawn(pool=None):
        k = draw(st.integers(1, 4))
        focals = [draw(focal if pool is None else st.sampled_from(pool)) for _ in range(k)]
        return MassAssignment(zip(focals, _den_masses(draw, k, draw(dens))))

    pool = draw(st.lists(focal, min_size=1, max_size=4)) if draw(st.booleans()) else None
    def mixed(basis):
        weights = [draw(st.integers(0, 3)) for _ in basis]
        assume(sum(weights))
        return combine([(F(w, sum(weights)), m) for w, m in zip(weights, basis)])

    basis = [drawn(pool) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):  # a basis set that mixes others: many solutions
        basis.insert(draw(st.integers(0, len(basis))), mixed(basis))
    return drawn() if draw(st.booleans()) else mixed(basis), basis


def stacks(m: MassAssignment):
    """m's entries stacked in a drawn order, bottom first, nested or not."""
    return st.permutations(m.entries).map(SlicedAssignment)


@st.composite
def moved_off_one(draw, m: MassAssignment, tolerance: Fraction) -> list:
    """The raw (focal, mass) entries of m with one mass moved up or down by
    a nonzero gap of at most tolerance, so they total within tolerance of 1
    but not 1. Each mass stays positive when tolerance is under every
    mass."""
    i = draw(st.integers(0, len(m) - 1))
    gap = tolerance * draw(st.integers(-10, 10).filter(bool)) / 10
    return [(f, mass + gap if k == i else mass) for k, (f, mass) in enumerate(m.entries)]


def exactly_normalised(pairs) -> list:
    """(focal, mass) pairs with each mass divided by their sum, computed
    here from the pairs, so they total exactly 1: the input that the mass
    and sliced assignment constructors divide raw pairs into."""
    pairs = list(pairs)
    total = sum(mass for _, mass in pairs)
    return [(f, mass / total) for f, mass in pairs]


def totals_one(x) -> bool:
    """Whether a mass or sliced assignment totals exactly 1: the masses of
    its entries or slices, and its stored mass keys under their scale."""
    pairs = x.slices if isinstance(x, SlicedAssignment) else x.entries
    keys = sum(mass for _, mass in x._keys)
    return sum(mass for _, mass in pairs) == 1 == unscaled(keys, x._mass_scale)


@st.composite
def nested_masses(draw, allow_empty=True):
    """Masses whose nonempty focal elements form a chain under inclusion."""
    lo = draw(frac(-8, 0, 2))
    hi = draw(frac(2, 8, 2))
    depth = draw(st.integers(1, 4))
    chain = [(lo, hi)]
    for _ in range(depth - 1):
        lo2 = draw(frac(0, 2, 4)) + chain[-1][0]
        hi2 = chain[-1][1] - draw(frac(0, 2, 4))
        if lo2 > hi2:
            break
        if (lo2, hi2) != chain[-1]:
            chain.append((lo2, hi2))
    weights = [draw(st.integers(1, 4)) for _ in chain]
    empty_w = draw(st.integers(0, 4)) if allow_empty else 0
    total = sum(weights) + empty_w
    entries = [(iu(p), F(w, total)) for p, w in zip(chain, weights)]
    if empty_w:
        entries.append((EMPTY, F(empty_w, total)))
    return MassAssignment(entries)


@st.composite
def piecewise_shapes(draw, max_vertices=6):
    """Shapes on a coarse grid, so that repeated x values (jumps), repeated
    vertices and single-vertex shapes all turn up often."""
    n = draw(st.integers(1, max_vertices))
    xs = sorted(draw(st.lists(frac(-2, 2, 2), min_size=n, max_size=n)))
    ms = draw(st.lists(frac(0, 1, 4), min_size=n, max_size=n))
    return PiecewiseShape(zip(xs, ms))


@st.composite
def coprime_shapes(draw, max_vertices=6):
    """Shapes whose coordinates have pairwise coprime denominators, so
    crossings and slice levels carry large common denominators. An x may
    repeat the one before it (a jump), a shape may be one lone vertex,
    and the peak is often below 1."""
    n = draw(st.integers(1, max_vertices))
    xs = [draw(frac(-3, 3, COPRIME_DENS))]
    for _ in range(n - 1):
        xs.append(xs[-1] if draw(st.booleans()) else draw(frac(-3, 3, COPRIME_DENS)))
    ms = draw(st.lists(frac(0, 1, COPRIME_DENS) | st.just(F(1)), min_size=n, max_size=n))
    return PiecewiseShape(zip(sorted(xs), ms))


def random_triangle(rng: random.Random, left=0, right=40, isosceles=True):
    """Triangle shape with quarter-grid vertices and peak 1."""
    a = F(rng.randint(left * 4, right * 4 - 8), 4)
    half = F(rng.randint(1, 8), 4)
    if isosceles:
        return PiecewiseShape([(a, 0), (a + half, 1), (a + 2 * half, 0)])
    other = F(rng.randint(1, 8), 4)
    while other == half:
        other = F(rng.randint(1, 8), 4)
    return PiecewiseShape([(a, 0), (a + half, 1), (a + half + other, 0)])


def scaled_triangle(shape: PiecewiseShape, scale: Fraction, shift: Fraction):
    """Similar copy: x -> scale*x + shift, memberships unchanged."""
    return PiecewiseShape([(scale * x + shift, m) for x, m in shape.vertices])


def shifted_shape(shape: PiecewiseShape, shift: Fraction):
    return PiecewiseShape([(x + shift, m) for x, m in shape.vertices])


# ---------------------------------------------------------------------------
# brute-force oracles

GRID = F(1, 20)


def grid_points(u: IntervalUnion, step: Fraction = GRID):
    """All multiples of step inside the union (endpoints included when
    they sit on the grid, which generated test data guarantees)."""
    pts = []
    for part in u.parts:
        k = math.ceil(part.lo / step)
        top = math.floor(part.hi / step)
        pts.extend(step * i for i in range(k, top + 1))
    return pts


def oracle_differences(a: IntervalUnion, b: IntervalUnion, directional: bool):
    """The set {y - x} (or {|y - x|}) over grid samples of a and b."""
    xs = grid_points(a)
    ys = grid_points(b)
    if directional:
        return sorted({y - x for x in xs for y in ys})
    return sorted({abs(y - x) for x in xs for y in ys})


def check_cell_against_grid(result: IntervalUnion, diffs, step: Fraction = GRID):
    """Every sampled difference must land in the result; every result
    part must be witnessed and endpoint-tight to within one grid step."""
    for d in diffs:
        assert result.contains_point(d), f"difference {d} outside {result}"
    for part in result.parts:
        inside = [d for d in diffs if part.lo <= d <= part.hi]
        assert inside, f"part {part} of {result} has no witness"
        assert min(inside) - part.lo <= step
        assert part.hi - max(inside) <= step


def oracle_mu(f: NumericFuzzySet, x: Fraction) -> Fraction:
    """Membership by scanning every step, as NumericFuzzySet.mu did before
    it bisected over the step starts."""
    for s in f.steps:
        if s.contains(x):
            return s.mu
    return ZERO


def perfbench_module(name: str) -> types.ModuleType:
    """A module of the benchmark harness (``perfbench/<name>.py``, not a
    package), executed from its source without writing anything there;
    tests use it read-only, as an independent witness."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


# The Fraction cells that fdist.distance replaced with one kernel over
# scaled integer keys: each cell is built from Intervals, merged here, and
# fed with its mass to the public MassAssignment, which merges equal cells
# and sorts them.

def oracle_cell(a: IntervalUnion, b: IntervalUnion, directional: bool) -> IntervalUnion:
    """{y - x} (or {|y - x|}) for x in a and y in b, one part per pair of
    parts; empty if either side is empty."""
    parts = []
    for p in a.parts:
        for q in b.parts:
            lo, hi = q.lo - p.hi, q.hi - p.lo
            if not directional and lo < 0:
                lo, hi = (-hi, -lo) if hi <= 0 else (ZERO, max(-lo, hi))
            parts.append(Interval(lo, hi))
    return IntervalUnion(oracle_merge(parts))


def kernel_cell(a, b, directional: bool):
    """The cell between focal elements a and b as the package computes it,
    on keys in the distance kernel: the one focal element of the product
    distance between the one-focal mass sets on a and on b, EMPTY when
    either is empty."""
    one_a, one_b = MassAssignment([(a, 1)]), MassAssignment([(b, 1)])
    d = distance(one_a, one_b, strategy=Strategy.PRODUCT, directional=directional)
    return d.mass.focals()[0]


def oracle_cells(a: SlicedAssignment, b: SlicedAssignment, directional: bool) -> list:
    """Every cell of a slice of a against a slice of b, by oracle_cell: the
    full matrix, row by row, duplicates kept."""
    return [oracle_cell(fa, fb, directional) for fa, _ in a.slices for fb, _ in b.slices]


# The all-pairs structure checks on cells that fdist.restriction made
# (theorem1_check and theorem2_witness over its CellMatrix): O(n^2) pairs
# of n cells. The package now decides nesting once, by mass.chain_order.

def oracle_all_comparable(cells) -> bool:
    """Whether every pair of cells is comparable under containment."""
    return all(
        oracle_focal_issuperset(x, y) or oracle_focal_issuperset(y, x)
        for k, x in enumerate(cells) for y in cells[k + 1:]
    )


def oracle_overlap_witness(cells):
    """Indices (k, l) of two cells that overlap with neither containing the
    other, the first such pair in order, or None."""
    for k, x in enumerate(cells):
        for l in range(k + 1, len(cells)):
            y = cells[l]
            if (oracle_focal_intersects(x, y) and not oracle_focal_issuperset(x, y)
                    and not oracle_focal_issuperset(y, x)):
                return k, l
    return None


# The stacking that SlicedAssignment.from_mass did before mass.chain_order:
# every entry built, sorted by length and part count, and neighbours tested
# for containment on the focal elements themselves.

def oracle_from_mass(m: MassAssignment) -> tuple:
    """m's (focal, mass) entries stacked by containment, biggest at the
    bottom; ValueError when the nonempty focal elements are not nested."""
    def size(f) -> tuple:
        # Of two nested unions of one length, the superset has more parts:
        # it adds single points. Label sets of one size are nested only
        # when equal.
        return (f.length, len(f.parts)) if isinstance(f, IntervalUnion) else (len(f), 0)

    # sort is stable and entries come in key_order, which keeps the
    # empty set, of size 0, no parts and contained in any set, last
    stack = sorted(m.entries, key=lambda e: size(e[0]), reverse=True)
    for (f1, _), (f2, _) in zip(stack, stack[1:]):
        if not oracle_focal_issuperset(f1, f2):
            raise ValueError(
                f"focal elements not nested: {cut(str(f1))} vs {cut(str(f2))}"
                "; diagonal and antidiagonal pairings need nested focal elements,"
                " the product strategy does not"
            )
    return tuple(stack)


def oracle_merge(parts) -> tuple:
    """Sort Intervals and merge those that overlap or touch, as
    IntervalUnion did before intervals.merge_spans."""
    merged: list = []
    for p in sorted(parts, key=lambda p: (p.lo, p.hi)):
        if merged and p.lo <= merged[-1].hi:
            if p.hi > merged[-1].hi:
                merged[-1] = Interval(merged[-1].lo, p.hi)
        else:
            merged.append(p)
    return tuple(merged)


def oracle_assign_product(m_a: MassAssignment, m_b: MassAssignment, directional: bool):
    """The product distance mass: every pair of focal elements a cell."""
    return MassAssignment(
        (oracle_cell(fa, fb, directional), ma * mb)
        for fa, ma in m_a.entries
        for fb, mb in m_b.entries
    )


def aligned(a: SlicedAssignment, b: SlicedAssignment) -> list:
    """align_levels(a, b)'s rows with each slice index mapped back to its
    focal element and each height key unscaled under the scale it returns:
    (focal_a, focal_b, height as a Fraction)."""
    rows, scale = align_levels(a, b)
    return [(a.slices[i][0], b.slices[j][0], unscaled(h, scale)) for i, j, h in rows]


def oracle_paired(a: SlicedAssignment, b: SlicedAssignment, directional: bool):
    """The paired distance mass: one cell per shared level range."""
    return MassAssignment(
        (oracle_cell(fa, fb, directional), h) for fa, fb, h in aligned(a, b)
    )


# The nested any/all containment test that intervals.covers replaced with
# one walk, and the all-pairs overlap test that intervals.meets replaced:
# O(p*q) comparisons of (lo, hi) spans, parts or keys alike.

def oracle_covers(outer, inner) -> bool:
    return all(any(olo <= lo and hi <= ohi for olo, ohi in outer) for lo, hi in inner)


def oracle_overlaps(a, b) -> bool:
    return any(alo <= bhi and blo <= ahi for alo, ahi in a for blo, bhi in b)


# The isinstance dispatch over label sets and interval unions that
# fdist.mass replaced with LabelSet, which gives label sets the interval
# union's methods. Label sets are combined by frozenset operators here, so
# the LabelSet methods under test are never called.

def oracle_focal_is_empty(f) -> bool:
    if isinstance(f, IntervalUnion):
        return f.is_empty
    if isinstance(f, frozenset):
        return len(f) == 0
    raise TypeError(f"not a focal element: {type(f).__name__}")


def oracle_focal_issuperset(a, g) -> bool:
    if oracle_focal_is_empty(g):
        return True
    if oracle_focal_is_empty(a):
        return False
    if isinstance(a, IntervalUnion) and isinstance(g, IntervalUnion):
        return oracle_covers(a.parts, g.parts)
    if isinstance(a, frozenset) and isinstance(g, frozenset):
        return a >= g
    raise TypeError(MIXED_KINDS)


def oracle_focal_intersects(a, g) -> bool:
    if oracle_focal_is_empty(a) or oracle_focal_is_empty(g):
        return False
    if isinstance(a, IntervalUnion) and isinstance(g, IntervalUnion):
        return oracle_overlaps(a.parts, g.parts)
    if isinstance(a, frozenset) and isinstance(g, frozenset):
        return bool(a & g)
    raise TypeError(MIXED_KINDS)


def oracle_focal_union(a, b):
    if oracle_focal_is_empty(a):
        return b
    if oracle_focal_is_empty(b):
        return a
    if isinstance(a, IntervalUnion) and isinstance(b, IntervalUnion):
        return a.union(b)
    if isinstance(a, frozenset) and isinstance(b, frozenset):
        return a | b
    raise TypeError(MIXED_KINDS)


def oracle_focal_intersection(a, b):
    if oracle_focal_is_empty(a) or oracle_focal_is_empty(b):
        return EMPTY
    if isinstance(a, IntervalUnion) and isinstance(b, IntervalUnion):
        return a.intersection(b)
    if isinstance(a, frozenset) and isinstance(b, frozenset):
        inter = a & b
        return inter if inter else EMPTY
    raise TypeError(MIXED_KINDS)


def oracle_focal_key(f) -> tuple:
    """Deterministic ordering: numeric by position, labels lexicographic,
    the empty set last."""
    if oracle_focal_is_empty(f):
        return (1,)
    if isinstance(f, frozenset):
        return (0, 0, tuple(sorted(f)))
    return (0, 1, tuple((p.lo, p.hi) for p in f.parts))


def oracle_format_focal(f) -> str:
    if oracle_focal_is_empty(f):
        return "[]"
    if isinstance(f, frozenset):
        return "{" + ",".join(sorted(f)) + "}"
    return str(f)


@contextmanager
def int_digit_limit(limit: int):
    """Run a block with the interpreter's integer digit limit set to limit
    (0 for none), whatever limit the suite runs under."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


# The mass and sliced assignment constructors as they were before one
# builder keyed every assignment from its numbers as read: every mass and
# endpoint a Fraction, masses merged per part key as Fractions, both scales
# the common_scale of the merged values, and the total divided out after.

def _oracle_one_kind(focals) -> None:
    if len({type(f) for f in focals if not f.is_empty}) > 1:
        raise ValueError(MIXED_KINDS)


def _oracle_endpoint_scale(focals):
    return common_scale(
        e for f in focals if isinstance(f, IntervalUnion) for p in f.parts for e in (p.lo, p.hi)
    )


def _oracle_divided(pairs: tuple, keys: tuple, w, tolerance: Fraction) -> tuple:
    total = sum(mass for _, mass in keys)
    if total == (1 if w is None else w):
        return w, keys, pairs
    exact = unscaled(total, w)
    if not exact or abs(exact - 1) > tolerance:
        raise ValueError(f"masses sum to {brief(exact)}, expected 1")
    if w is None:
        keys = tuple((key, mass / total) for key, mass in keys)
    else:
        w = total
    pairs = tuple((f, unscaled(mass, w)) for (f, _), (_, mass) in zip(pairs, keys))
    return w, keys, pairs


def oracle_mass_keys(entries, tolerance: Fraction = DEFAULT_TOLERANCE) -> tuple:
    """(scale, mass scale, keys, entries) that MassAssignment(entries,
    tolerance=tolerance) stores, or the error it raises."""
    positive = []
    for focal, mass in entries:
        focal, mass = as_focal(focal), as_fraction(mass)
        if mass < 0:
            raise ValueError(f"negative mass {brief(mass)} on {cut(str(focal))}")
        if mass != 0:
            positive.append((focal, mass))
    _oracle_one_kind(f for f, _ in positive)
    d = _oracle_endpoint_scale(f for f, _ in positive)
    merged: dict = {}
    for focal, mass in positive:
        k = focal.part_keys(d)
        e = merged.get(k)
        if e is None:
            merged[k] = [focal, mass]
        else:
            e[1] += mass
    order = sorted(merged, key=key_order)
    w = common_scale(mass for _, mass in merged.values())
    keys = tuple((k, scaled(merged[k][1], w)) for k in order)
    pairs = tuple(tuple(merged[k]) for k in order)
    return (d, *_oracle_divided(pairs, keys, w, tolerance))


def oracle_stack_keys(entries) -> tuple:
    """(scale, mass scale, keys, slices) that SlicedAssignment(entries)
    stores, or the error it raises."""
    slices = tuple((as_focal(f), as_fraction(mass)) for f, mass in entries)
    if not slices:
        raise ValueError("need at least one slice")
    _oracle_one_kind(f for f, _ in slices)
    for f, mass in slices:
        if mass <= 0:
            raise ValueError(f"slice mass {brief(mass)} on {cut(str(f))} is not positive")
    d = _oracle_endpoint_scale(f for f, _ in slices)
    w = common_scale(mass for _, mass in slices)
    keys = tuple((f.part_keys(d), scaled(mass, w)) for f, mass in slices)
    return (d, *_oracle_divided(slices, keys, w, DEFAULT_TOLERANCE))


def oracle_mass(entries, tolerance: Fraction = DEFAULT_TOLERANCE) -> MassAssignment:
    """A MassAssignment holding what oracle_mass_keys returns."""
    return MassAssignment._trusted(*oracle_mass_keys(entries, tolerance))


# The document loader as it was before intervals.read: every number a
# Fraction (a string tried as a Decimal, then as a Fraction), every focal
# element an IntervalUnion, every mass set built by the constructor oracle
# (oracle_mass).

def oracle_as_fraction(value) -> Fraction:
    if isinstance(value, bool):
        raise TypeError("boolean is not a number")
    if isinstance(value, Fraction):
        return value
    number = value
    if isinstance(value, str):
        try:
            number = Decimal(value)
        except InvalidOperation:
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"not a number: {echo(value)}") from None
    if isinstance(number, Decimal) and number.is_finite():
        limit = digit_limit()
        if abs(number.as_tuple().exponent) > limit:
            raise ValueError(f"exponent out of range (over {limit} digits): {echo(str(value))}")
    if isinstance(number, (int, float, Decimal)):
        try:
            return Fraction(number)
        except (OverflowError, ValueError):
            raise ValueError(f"not a finite number: {echo(value)}") from None
    raise TypeError(f"cannot interpret {type(value).__name__} as a number")


def _oracle_number(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise SpecError(path, "expected a number, got a boolean")
    try:
        q = oracle_as_fraction(value)
        if max(q.numerator.bit_length(), q.denominator.bit_length()) > 3 * digit_limit():
            format_fraction(q)
        return q
    except (TypeError, ValueError) as exc:
        raise SpecError(path, str(exc)) from None


def _oracle_focal(value, path: str):
    if not isinstance(value, list):
        raise SpecError(path, "focal element must be a list")
    if all(isinstance(v, str) for v in value):
        return as_focal(frozenset(value))
    parts = []
    for i, pair in enumerate(value):
        here = f"{path}[{i}]"
        if isinstance(pair, str):
            raise SpecError(here, "cannot mix labels and intervals")
        if not isinstance(pair, list) or len(pair) != 2:
            raise SpecError(here, "expected an [lo, hi] pair")
        lo, hi = (_oracle_number(v, here) for v in pair)
        if lo > hi:
            raise SpecError(here, f"interval endpoints out of order: {brief(lo)} > {brief(hi)}")
        parts.append((lo, hi))
    return IntervalUnion._from_merged(merge_spans(parts))


def _oracle_parse_set(obj, path: str, tolerance: Fraction) -> SpecSet:
    if not isinstance(obj, dict):
        raise SpecError(path, "each set must be an object")
    _expect_keys(obj, path, {"name", "kind"}, {"vertices", "grades", "entries", "slices"})
    name = obj["name"]
    if not isinstance(name, str) or not name:
        raise SpecError(f"{path}.name", "name must be a non-empty string")
    kind = obj["kind"]
    if kind not in KINDS:
        raise SpecError(f"{path}.kind", f"kind must be one of {', '.join(KINDS)}")
    slices = obj.get("slices")
    if slices is not None:
        if kind != "points":
            raise SpecError(f"{path}.slices", "slices applies only to points sets")
        if isinstance(slices, bool) or not isinstance(slices, int) or slices < 1:
            raise SpecError(f"{path}.slices", "slices must be a positive integer")
    field = {"points": "vertices", "discrete": "grades", "mass": "entries"}[kind]
    if field not in obj:
        raise SpecError(path, f"a {kind} set needs {field!r}")
    for other in {"vertices", "grades", "entries"} - {field}:
        if other in obj:
            raise SpecError(f"{path}.{other}", f"not allowed on a {kind} set")
    body = obj[field]
    here = f"{path}.{field}"
    if kind == "points":
        if not isinstance(body, list) or not body:
            raise SpecError(here, "vertices must be a non-empty list")
        vertices = []
        for i, pair in enumerate(body):
            if not isinstance(pair, list) or len(pair) != 2:
                raise SpecError(f"{here}[{i}]", "expected an [x, membership] pair")
            vertices.append(tuple(_oracle_number(v, f"{here}[{i}]") for v in pair))
        try:
            value = PiecewiseShape(vertices)
        except ValueError as exc:
            raise SpecError(here, str(exc)) from None
    elif kind == "discrete":
        if not isinstance(body, dict) or not body:
            raise SpecError(here, "grades must be a non-empty object")
        _expect_keys(body, here, set(), body.keys())
        grades = {label: _oracle_number(g, f"{here}.{cut(label)}") for label, g in body.items()}
        try:
            value = DiscreteFuzzySet(grades)
        except ValueError as exc:
            raise SpecError(here, str(exc)) from None
    else:
        if not isinstance(body, list) or not body:
            raise SpecError(here, "entries must be a non-empty list")
        entries = []
        for i, entry in enumerate(body):
            row = f"{here}[{i}]"
            if not isinstance(entry, dict):
                raise SpecError(row, "each entry must be an object")
            _expect_keys(entry, row, {"focal", "mass"})
            entries.append((_oracle_focal(entry["focal"], f"{row}.focal"),
                            _oracle_number(entry["mass"], f"{row}.mass")))
        try:
            value = oracle_mass(entries, tolerance)
        except ValueError as exc:
            raise SpecError(here, str(exc)) from None
    return SpecSet(name, kind, value, slices)


def oracle_parse_document(doc, *, tolerance: Fraction = DEFAULT_TOLERANCE) -> dict:
    if not isinstance(doc, dict):
        raise SpecError("$", "document must be an object")
    _expect_keys(doc, "$", {"sets"})
    if not isinstance(doc["sets"], list):
        raise SpecError("$.sets", "sets must be a list")
    out: dict = {}
    for i, obj in enumerate(doc["sets"]):
        parsed = _oracle_parse_set(obj, f"$.sets[{i}]", tolerance)
        if parsed.name in out:
            raise SpecError(f"$.sets[{i}].name", f"duplicate set name {echo(parsed.name)}")
        out[parsed.name] = parsed
    return out


def oracle_parse_text(text: str, *, tolerance: Fraction = DEFAULT_TOLERANCE) -> dict:
    """parse_text before intervals.read: JSON floats decoded as Decimals."""
    try:
        doc = json.loads(text, parse_float=Decimal, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise SpecError(f"$ (line {exc.lineno})", exc.msg) from None
    except RecursionError:
        raise SpecError("$", "document nested too deeply") from None
    except ValueError:
        raise SpecError("$", f"integer literal longer than {digit_limit()} digits") from None
    return oracle_parse_document(doc, tolerance=tolerance)


# The result-document text and number form that fdist.cli and
# fdist.intervals wrote before specfile.render and the bit-count
# format_fraction replaced them.

def oracle_render(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


# The result documents that fdist.specfile built as dicts, value by value,
# before it wrote them row by row from templates.

def oracle_focal_doc(f) -> list:
    if isinstance(f, frozenset):
        return sorted(f)
    return [[format_fraction(p.lo), format_fraction(p.hi)] for p in f.parts]


def oracle_mass_doc(m: MassAssignment, name: str = "result") -> dict:
    return {
        "name": name,
        "kind": "mass",
        "entries": [
            {"focal": oracle_focal_doc(f), "mass": format_fraction(mass)} for f, mass in m.entries
        ],
    }


def oracle_fuzzy_doc(f: NumericFuzzySet) -> list:
    return [
        {
            "mu": format_fraction(s.mu),
            "lo": format_fraction(s.lo),
            "hi": format_fraction(s.hi),
            "lo_open": s.lo_open,
            "hi_open": s.hi_open,
        }
        for s in f.steps
    ]


# The eager writer that fdist.specfile replaced with its keyed one: every
# entry's focal element and mass, and every step, built as Fractions and
# each number written by format_fraction, into the same row templates.

def _oracle_focal_items(f) -> str:
    if isinstance(f, frozenset):
        return ",".join([_LABEL % encode_basestring_ascii(label) for label in sorted(f)])
    return ",".join([_PART % (format_fraction(p.lo), format_fraction(p.hi)) for p in f.parts])


def oracle_mass_frame(m: MassAssignment, name: str) -> dict:
    rows = []
    for f, mass in m.entries:
        items, text = _oracle_focal_items(f), format_fraction(mass)
        rows.append(_ENTRY % (items, text) if items else _EMPTY_ENTRY % text)
    return {"name": name, "kind": "mass", "entries": _rows(rows)}


def oracle_fuzzy_rows(f: NumericFuzzySet) -> Rows:
    return _rows([
        _STEP % (
            format_fraction(s.mu), format_fraction(s.lo), format_fraction(s.hi),
            _BOOL[s.lo_open], _BOOL[s.hi_open],
        )
        for s in f.steps
    ])


def oracle_format_fraction(q: Fraction) -> str:
    den = q.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{q.numerator}/{q.denominator}"
    digits = max(twos, fives)
    if digits == 0:
        return str(q.numerator)
    scaled = abs(q.numerator) * 10**digits // q.denominator
    text = str(scaled).rjust(digits + 1, "0")
    sign = "-" if q < 0 else ""
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


# The Fraction solvers that fdist.exactlp replaced with a fraction-free
# simplex and a primal-dual flow on integer costs: the dense two-phase
# tableau with Bland's rule, and successive shortest paths found by
# Bellman-Ford over cost tuples. They share no code with fdist.exactlp
# and serve as its oracles and as the dense LP oracles below.

def _oracle_pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for r, line in enumerate(tableau):
        if r != row and line[col] != 0:
            factor = line[col]
            tableau[r] = [v - factor * w for v, w in zip(line, tableau[row])]
    basis[row] = col


def _oracle_simplex(tableau, basis, cost, ncols):
    """Maximize over the current tableau; cost is the full objective row.
    Returns the optimal value."""
    m = len(tableau)
    # reduced costs: z_j = c_j - c_B . column_j, objective value in obj[-1]
    obj = list(cost) + [ZERO]
    for r in range(m):
        cb = cost[basis[r]]
        if cb != 0:
            obj = [v - cb * w for v, w in zip(obj, tableau[r])]
    while True:
        col = next((j for j in range(ncols) if obj[j] > 0), None)
        if col is None:
            return -obj[-1]
        row = None
        best = None
        for r in range(m):
            a = tableau[r][col]
            if a > 0:
                ratio = tableau[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[row]):
                    best = ratio
                    row = r
        if row is None:
            raise Unbounded("objective unbounded above")
        _oracle_pivot(tableau, basis, row, col)
        factor = obj[col]
        if factor != 0:
            obj = [v - factor * w for v, w in zip(obj, tableau[row])]


def oracle_maximize(c, A, b) -> tuple:
    """(optimal value, solution vector) of max c.x, A x = b, x >= 0, by
    the two-phase Fraction tableau; raises Infeasible or Unbounded."""
    n = len(c)
    m = len(A)
    # phase 1 tableau: [A | I | b] with artificial basis, rows flipped so b >= 0
    tableau = []
    for i in range(m):
        row = list(A[i])
        rhs = b[i]
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        art = [ONE if j == i else ZERO for j in range(m)]
        tableau.append(row + art + [rhs])
    basis = [n + i for i in range(m)]
    phase1_cost = [ZERO] * n + [-ONE] * m
    if _oracle_simplex(tableau, basis, phase1_cost, n + m) < 0:
        raise Infeasible("no feasible point")

    # drive remaining artificials out of the basis, drop redundant rows
    keep = []
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j] != 0), None)
            if col is None:
                continue  # redundant constraint
            _oracle_pivot(tableau, basis, r, col)
        keep.append(r)
    tableau = [tableau[r][:n] + [tableau[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]

    value = _oracle_simplex(tableau, basis, c, n)
    x = [ZERO] * n
    for r, var in enumerate(basis):
        x[var] = tableau[r][-1]
    return value, x


def rational_min_cost_flow(supply, demand, edges, costs) -> list:
    """min_cost_flow over Fraction supplies and demands: each times the lcm
    of their denominators, as an integer, and each flow back over it as a
    Fraction."""
    values = (*supply, *demand)
    scale = lcm(*(v.denominator for v in values))
    rooms = [v.numerator * (scale // v.denominator) for v in values]
    flows = min_cost_flow(rooms[:len(supply)], rooms[len(supply):], edges, costs)
    return [Fraction(f, scale) if f else ZERO for f in flows]


def oracle_min_cost_flow(supply, demand, edges, costs) -> list:
    """Flow per (i, j) edge: a maximum flow whose summed cost tuple is
    lexicographically least, by successive shortest paths, each found by
    queue-based Bellman-Ford over (cost tuple, edge count)."""
    source, sink = len(supply) + len(demand), len(supply) + len(demand) + 1
    zero = (0,) * len(costs[0]) if costs else ()
    scale = lcm(*(x.denominator for x in (*supply, *demand)))
    head, cap, cost, out = [], [], [], [[] for _ in range(sink + 1)]

    def arc(u, v, capacity, c):
        for a, b, room, w in ((u, v, capacity, c), (v, u, 0, tuple(-x for x in c))):
            out[a].append(len(head))
            head.append(b)
            cap.append(room)
            cost.append(w)

    for i, s in enumerate(supply):
        arc(source, i, int(s * scale), zero)
    for j, d in enumerate(demand):
        arc(len(supply) + j, sink, int(d * scale), zero)
    total = int(sum(supply, ZERO) * scale)
    first = len(head)
    for (i, j), c in zip(edges, costs):
        arc(i, len(supply) + j, total, c)

    while True:
        dist, via, queue = {source: (zero, 0)}, {}, deque([source])
        while queue:
            u = queue.popleft()
            du, hops = dist[u]
            for k in out[u]:
                if cap[k]:
                    v = head[k]
                    d = (tuple(map(add, du, cost[k])), hops + 1)
                    if v not in dist or d < dist[v]:
                        dist[v], via[v] = d, k
                        queue.append(v)
        if sink not in dist:
            return [Fraction(cap[k + 1], scale) for k in range(first, len(head), 2)]
        path, v = [], sink
        while v != source:
            path.append(via[v])
            v = head[via[v] ^ 1]
        push = min(cap[k] for k in path)
        for k in path:
            cap[k] -= push
            cap[k ^ 1] += push


def flow_totals(edges, costs, flow) -> tuple:
    """A flow's value and its summed cost tuple: what every optimal flow
    shares, whichever optimal edge vector a solver returns."""
    width = len(costs[0]) if costs else 0
    sums = tuple(sum((c[k] * x for c, x in zip(costs, flow)), ZERO) for k in range(width))
    return sum(flow, ZERO), sums


# The dense simplex formulation of both transportation problems, which
# fdist replaced with one exact min-cost flow.

def transportation(cells, supply, demand) -> tuple:
    """(A, b) of a transportation problem with one variable per (i, j)
    cell: a row per supply i summing its cells' variables to supply[i],
    then a row per demand j summing to demand[j]."""
    rows = [[F(i == k) for i, _ in cells] for k in range(len(supply))]
    rows += [[F(j == k) for _, j in cells] for k in range(len(demand))]
    return rows, list(supply) + list(demand)


def oracle_lex_maximize(objectives, A, b):
    """Lexicographic maximization by pinning: solve each objective from
    scratch with every earlier optimum appended as an equality row."""
    rows = [list(r) for r in A]
    rhs = list(b)
    values = []
    x = None
    for obj in objectives:
        value, x = oracle_maximize(obj, rows, rhs)
        values.append(value)
        rows.append(list(obj))
        rhs.append(value)
    return values, x


def oracle_truth_cell(a, g) -> TruthLabel:
    """truth_cell on oracle_focal_issuperset and oracle_focal_intersects,
    so no focal method of the package labels a cell."""
    if oracle_focal_is_empty(g):
        return TruthLabel.TRUE if oracle_focal_is_empty(a) else TruthLabel.UNKNOWN
    if oracle_focal_is_empty(a):
        return TruthLabel.BOTH
    if oracle_focal_issuperset(a, g):
        return TruthLabel.TRUE
    if not oracle_focal_intersects(a, g):
        return TruthLabel.FALSE
    return TruthLabel.BOTH


def oracle_unify_product(m_a, m_g) -> TruthAssignment:
    """Product routing as one Fraction product per cell, over the entries,
    which total exactly 1: TruthAssignment refuses label masses that do
    not."""
    acc = {label: ZERO for label in TruthLabel}
    for fa, ma in m_a.entries:
        for fg, mg in m_g.entries:
            acc[oracle_truth_cell(fa, fg)] += ma * mg
    return TruthAssignment(acc)


def oracle_unify_maximal(m_a, m_g, order=DEFAULT_ORDER) -> TruthAssignment:
    """Maximal routing as a dense LP: the transportation rows of the full
    label table and one 0/1 objective per label, maximized in order."""
    supply = [m for _, m in m_a.entries]
    demand = [m for _, m in m_g.entries]
    cells = [(i, j) for i in range(len(supply)) for j in range(len(demand))]
    labels = [oracle_truth_cell(fa, fg) for fa, _ in m_a.entries for fg, _ in m_g.entries]
    objectives = [[F(l == label) for l in labels] for label in order]
    values, _ = oracle_lex_maximize(objectives, *transportation(cells, supply, demand))
    return TruthAssignment(dict(zip(order, values)))


def oracle_combination_lp(target: MassAssignment, basis) -> tuple:
    """(rows, rhs) of linear_combination's LP, built over the entries: one
    lookup table of focal elements per set, one row per focal element,
    label sets first, then key_order on the unscaled part keys, and the
    row of coefficients summing to 1."""
    held, *columns = (dict(m.entries) for m in (target, *basis))
    focals = sorted(
        set(held).union(*columns),
        key=lambda f: (isinstance(f, IntervalUnion), key_order(f.part_keys())),
    )
    rows = [[column.get(f, ZERO) for column in columns] for f in focals]
    rhs = [held.get(f, ZERO) for f in focals]
    rows.append([ONE] * len(basis))
    rhs.append(ONE)
    return rows, rhs


def oracle_linear_combination(target: MassAssignment, basis) -> tuple:
    """linear_combination as it read the entries: the coefficients that
    solve oracle_combination_lp, or None."""
    if not basis:
        return None
    solution = feasible(*oracle_combination_lp(target, basis))
    return None if solution is None else tuple(solution)


def oracle_reachable_type1(src: MassAssignment, dst: MassAssignment) -> bool:
    """Type-1 reachability as LP feasibility over the transportation rows
    of the superset edges."""
    edges = [
        (i, j)
        for i, (fs, _) in enumerate(src.entries)
        for j, (fd, _) in enumerate(dst.entries)
        if oracle_focal_issuperset(fs, fd)
    ]
    rows, rhs = transportation(
        edges, [m for _, m in src.entries], [m for _, m in dst.entries]
    )
    try:
        oracle_maximize([ZERO] * len(edges), rows, rhs)
    except Infeasible:
        return False
    return True


# The two-pass cut and the refine-and-zip alignment that fdist.mass
# replaced with one edge pass and one merge walk.

def oracle_level_cut(shape: PiecewiseShape, level: Fraction) -> IntervalUnion:
    """Closure of the strict cut {x : mu(x) > level}: a point for every
    vertex above the level, then every non-jump edge above or crossing it."""
    pieces = []
    for x, m in shape.vertices:
        if m > level:
            pieces.append(Interval(x, x))
    for (x1, m1), (x2, m2) in zip(shape.vertices, shape.vertices[1:]):
        if x1 == x2:
            continue  # jump, endpoints covered by the vertex pass
        if m1 > level and m2 > level:
            pieces.append(Interval(x1, x2))
        elif m1 > level or m2 > level:
            xc = x1 + (level - m1) * (x2 - x1) / (m2 - m1)
            pieces.append(Interval(x1, xc) if m1 > level else Interval(xc, x2))
    return IntervalUnion(tuple(pieces))


def _boundaries(s: SlicedAssignment) -> tuple:
    """0 and the level at which each slice ends: the prefix sums of the
    slice masses."""
    return tuple(accumulate((mass for _, mass in s.slices), initial=ZERO))


def _refined(s: SlicedAssignment, boundaries) -> SlicedAssignment:
    """Split slices at the given interior levels, keeping focals."""
    cuts = sorted(set(boundaries))
    levels = _boundaries(s)
    out = []
    for (f, _), lo, hi in zip(s.slices, levels, levels[1:]):
        for b in cuts[bisect_right(cuts, lo):bisect_left(cuts, hi)] + [hi]:
            out.append((f, b - lo))
            lo = b
    return SlicedAssignment(out)


def oracle_align_levels(a: SlicedAssignment, b: SlicedAssignment) -> list:
    """Refine both stacks to the union of their level boundaries, then
    zip the refined slices into (focal_a, focal_b, height) triples."""
    bounds = sorted(set(_boundaries(a)) | set(_boundaries(b)))
    a2, b2 = _refined(a, bounds), _refined(b, bounds)
    if _boundaries(a2) != _boundaries(b2):
        raise ValueError("slice levels misaligned")
    return [(fa, fb, mass) for (fa, mass), (fb, _) in zip(a2.slices, b2.slices)]


# The quadratic reconstructions that fdist.mass replaced with one endpoint
# sweep: every focal element is tested at every breakpoint (and midpoint).

def oracle_fuzzy_from_mass(m: MassAssignment) -> NumericFuzzySet:
    """Membership of x is the total mass of focal elements containing x."""
    focals = []
    for f, mass in m.entries:
        if isinstance(f, frozenset):
            raise TypeError("membership reconstruction needs numeric focal elements")
        if not f.is_empty:
            focals.append((f, mass))
    if not focals:
        return NumericFuzzySet(())

    def mu_at(x: Fraction) -> Fraction:
        return sum((mass for f, mass in focals if f.contains_point(x)), ZERO)

    points = sorted(
        {e for f, _ in focals for part in f.parts for e in (part.lo, part.hi)}
    )
    atoms = []  # (lo, hi, lo_open, hi_open, mu)
    for i, c in enumerate(points):
        atoms.append((c, c, False, False, mu_at(c)))
        if i + 1 < len(points):
            atoms.append((c, points[i + 1], True, True, mu_at((c + points[i + 1]) / 2)))

    def emit(run) -> Step:
        lo, hi, lo_open, hi_open, mu = run
        return Step(lo, hi, mu, lo_open, hi_open)

    steps = []
    run = None
    for lo, hi, lo_open, hi_open, mu in atoms:
        if mu == 0:
            if run:
                steps.append(emit(run))
                run = None
            continue
        if run and run[4] == mu and run[1] == lo:
            run = (run[0], hi, run[2], hi_open, mu)
        else:
            if run:
                steps.append(emit(run))
            run = (lo, hi, lo_open, hi_open, mu)
    if run:
        steps.append(emit(run))
    return NumericFuzzySet(tuple(steps))


def oracle_centre_of_gravity(f: NumericFuzzySet) -> Fraction:
    """The step form that mass.centre_of_gravity replaced with two sums
    over the mass keys: area and moment integrated over f's steps."""
    area = sum((s.mu * (s.hi - s.lo) for s in f.steps), ZERO)
    if area == 0:
        raise ZeroAreaError("fuzzy set has zero area")
    # halved once, after the sum, so integer-valued steps stay exact
    moment = sum((s.mu * (s.hi**2 - s.lo**2) for s in f.steps), ZERO) / 2
    return moment / area


def oracle_least_prejudiced(m: MassAssignment) -> Density:
    """Spread each focal element's mass uniformly over its length and add
    the densities. Mass on the empty set is reported separately."""
    focals = []
    for f, mass in m.entries:
        if isinstance(f, frozenset):
            raise TypeError("density needs numeric focal elements")
        if f.is_empty:
            continue
        if f.length == 0:
            raise DegenerateSupportError(
                f"cannot spread mass over zero-length focal element {f}"
            )
        focals.append((f, mass))
    if not focals:
        return Density((), m.empty_mass)

    points = sorted(
        {e for f, _ in focals for part in f.parts for e in (part.lo, part.hi)}
    )
    pieces = []
    run = None  # [lo, hi, density]
    for lo, hi in zip(points, points[1:]):
        mid = (lo + hi) / 2
        d = sum(
            (mass / f.length for f, mass in focals if f.contains_point(mid)), ZERO
        )
        if d == 0:
            if run:
                pieces.append((Interval(run[0], run[1]), run[2]))
                run = None
            continue
        if run and run[2] == d and run[1] == lo:
            run[1] = hi
        else:
            if run:
                pieces.append((Interval(run[0], run[1]), run[2]))
            run = [lo, hi, d]
    if run:
        pieces.append((Interval(run[0], run[1]), run[2]))
    return Density(tuple(pieces), m.empty_mass)
