"""Shared builders and brute-force oracles for the test suite."""

import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

from hypothesis import strategies as st

from fdist.exactlp import maximize
from fdist.intervals import EMPTY, ZERO, Interval, IntervalUnion, iu
from fdist.mass import (
    DegenerateSupportError,
    Density,
    MassAssignment,
    NumericFuzzySet,
    PiecewiseShape,
    Slice,
    SlicedAssignment,
    Step,
)

F = Fraction


def frac(lo=-10, hi=10, den=4):
    """Fractions k/den within [lo, hi]."""
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
def numeric_masses(draw, max_focals=4, allow_empty=True, lo=-8, hi=8):
    k = draw(st.integers(1, max_focals))
    focals = [
        draw(interval_unions(max_parts=2, lo=lo, hi=hi, allow_empty=allow_empty))
        for _ in range(k)
    ]
    weights = [draw(st.integers(1, 8)) for _ in range(k)]
    total = sum(weights)
    return MassAssignment((f, F(w, total)) for f, w in zip(focals, weights))


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


def oracle_lex_maximize(objectives, A, b):
    """Lexicographic maximization by pinning: solve each objective from
    scratch with every earlier optimum appended as an equality row."""
    rows = [list(r) for r in A]
    rhs = list(b)
    values = []
    x = None
    for obj in objectives:
        value, x = maximize(obj, rows, rhs)
        values.append(value)
        rows.append(list(obj))
        rhs.append(value)
    return values, x


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
    return (ZERO,) + tuple(sl.level_hi for sl in s.slices)


def _refined(s: SlicedAssignment, boundaries) -> SlicedAssignment:
    """Split slices at the given interior levels, keeping focals."""
    cuts = sorted(set(boundaries))
    out = []
    for sl in s.slices:
        inner = cuts[bisect_right(cuts, sl.level_lo):bisect_left(cuts, sl.level_hi)]
        lo = sl.level_lo
        for b in inner + [sl.level_hi]:
            out.append(Slice(lo, b, sl.focal))
            lo = b
    return SlicedAssignment(tuple(out))


def oracle_align_levels(a: SlicedAssignment, b: SlicedAssignment) -> list:
    """Refine both stacks to the union of their level boundaries, then
    zip the refined slices into (focal_a, focal_b, height) triples."""
    bounds = sorted(set(_boundaries(a)) | set(_boundaries(b)))
    a2, b2 = _refined(a, bounds), _refined(b, bounds)
    if _boundaries(a2) != _boundaries(b2):
        raise ValueError("slice levels misaligned")
    return [(sa.focal, sb.focal, sa.mass) for sa, sb in zip(a2.slices, b2.slices)]


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
