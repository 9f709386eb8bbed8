"""Fuzzy sets as mass assignments over focal elements.

A mass assignment distributes probability mass over focal elements, which
here are either label sets (frozenset) or numeric IntervalUnions. A fuzzy
set with maximum membership below 1 puts the deficit on the empty set, so
masses always total 1.

Conventions that matter and are easy to get wrong:

* Slicing a piecewise-linear shape into n level slices takes slice k's
  focal element as the closure of the strict cut {x : mu(x) > level_lo}
  at the slice's lower boundary. For the triangle (1,0),(3,1),(5,0) and
  n = 2 this yields [1,5]:0.5 and [2,4]:0.5. Each cut is one pass over
  the edges; align_levels pairs two stacks in one merge walk over levels.
* Membership reconstructed from masses is the sum over focal elements
  containing the point, with closed-set containment. At an endpoint
  shared by several focal elements the sums stack, so the step regions
  of the result are genuinely half-open in general; steps carry explicit
  open/closed boundary flags.
* Membership and density come from one endpoint sweep. Each part of a
  focal element adds its weight (the mass, or for density the mass over
  the focal's length) to a start delta at part.lo and an end delta at
  part.hi. Walking the sorted endpoints with a running sum, the value
  at endpoint c is the sum after adding the starts at c, and the value
  on the open gap after c is that minus the ends at c. Stacking at a
  shared closed endpoint and single-point parts follow from this rule.
"""

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Sequence, Union

from .intervals import (
    DEFAULT_TOLERANCE,
    EMPTY,
    ONE,
    ZERO,
    Interval,
    IntervalUnion,
    Rational,
    as_fraction,
    format_fraction,
)

Focal = Union[IntervalUnion, frozenset]


class DegenerateSupportError(ValueError):
    """A zero-length focal element cannot spread its mass uniformly."""


class ZeroAreaError(ValueError):
    """A fuzzy set with zero area has no centre of gravity."""


# ---------------------------------------------------------------------------
# focal element helpers, polymorphic over label sets and interval unions

def focal_is_empty(f: Focal) -> bool:
    if isinstance(f, IntervalUnion):
        return f.is_empty
    if isinstance(f, frozenset):
        return len(f) == 0
    raise TypeError(f"not a focal element: {type(f).__name__}")


def focal_issuperset(a: Focal, g: Focal) -> bool:
    if focal_is_empty(g):
        return True
    if focal_is_empty(a):
        return False
    if isinstance(a, IntervalUnion) and isinstance(g, IntervalUnion):
        return a.issuperset(g)
    if isinstance(a, frozenset) and isinstance(g, frozenset):
        return a.issuperset(g)
    raise TypeError("cannot mix label-set and numeric focal elements")


def focal_intersects(a: Focal, g: Focal) -> bool:
    if focal_is_empty(a) or focal_is_empty(g):
        return False
    if isinstance(a, IntervalUnion) and isinstance(g, IntervalUnion):
        return a.intersects(g)
    if isinstance(a, frozenset) and isinstance(g, frozenset):
        return bool(a & g)
    raise TypeError("cannot mix label-set and numeric focal elements")


def focal_union(a: Focal, b: Focal) -> Focal:
    if focal_is_empty(a):
        return b
    if focal_is_empty(b):
        return a
    if isinstance(a, IntervalUnion) and isinstance(b, IntervalUnion):
        return a.union(b)
    if isinstance(a, frozenset) and isinstance(b, frozenset):
        return a | b
    raise TypeError("cannot mix label-set and numeric focal elements")


def focal_intersection(a: Focal, b: Focal) -> Focal:
    if focal_is_empty(a) or focal_is_empty(b):
        return EMPTY
    if isinstance(a, IntervalUnion) and isinstance(b, IntervalUnion):
        return a.intersection(b)
    if isinstance(a, frozenset) and isinstance(b, frozenset):
        inter = a & b
        return inter if inter else EMPTY
    raise TypeError("cannot mix label-set and numeric focal elements")


def focal_key(f: Focal) -> tuple:
    """Deterministic ordering: numeric by position, labels lexicographic,
    the empty set last."""
    if focal_is_empty(f):
        return (1,)
    if isinstance(f, frozenset):
        return (0, 0, tuple(sorted(f)))
    return (0, 1, f.sort_key())


def format_focal(f: Focal) -> str:
    if focal_is_empty(f):
        return "[]"
    if isinstance(f, frozenset):
        return "{" + ",".join(sorted(f)) + "}"
    return str(f)


# ---------------------------------------------------------------------------
# core types

class MassAssignment:
    """Canonical mass assignment: entries merged per focal element, zero
    masses dropped, every empty focal normalized to the one empty set,
    entries sorted deterministically, masses summing to 1 (within the
    tolerance, for inputs that arrive as rounded decimals)."""

    __slots__ = ("entries", "_by_focal")

    def __init__(
        self,
        entries: Iterable[tuple],
        *,
        tolerance: Fraction = DEFAULT_TOLERANCE,
    ):
        merged: dict = {}
        for focal, mass in entries:
            mass = as_fraction(mass)
            if mass < 0:
                raise ValueError(f"negative mass {mass} on {format_focal(focal)}")
            if mass == 0:
                continue
            if focal_is_empty(focal):
                focal = EMPTY
            merged[focal] = merged.get(focal, ZERO) + mass
        total = sum(merged.values(), ZERO)
        if abs(total - 1) > tolerance:
            raise ValueError(f"masses sum to {total}, expected 1")
        object.__setattr__(
            self,
            "entries",
            tuple(sorted(merged.items(), key=lambda e: focal_key(e[0]))),
        )
        object.__setattr__(self, "_by_focal", merged)

    def __setattr__(self, name, value):
        raise AttributeError("MassAssignment is immutable")

    def mass_of(self, focal: Focal) -> Fraction:
        if focal_is_empty(focal):
            focal = EMPTY
        return self._by_focal.get(focal, ZERO)

    def focals(self) -> tuple:
        return tuple(f for f, _ in self.entries)

    @property
    def total(self) -> Fraction:
        return sum((m for _, m in self.entries), ZERO)

    @property
    def empty_mass(self) -> Fraction:
        return self._by_focal.get(EMPTY, ZERO)

    @property
    def is_normal(self) -> bool:
        return self.empty_mass == 0

    def negated(self) -> "MassAssignment":
        """Map every numeric focal element through pointwise negation."""
        out = []
        for f, m in self.entries:
            if not isinstance(f, IntervalUnion):
                raise TypeError("negation needs numeric focal elements")
            out.append((f.negated(), m))
        return MassAssignment(out)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, MassAssignment) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = ", ".join(f"{format_focal(f)}:{format_fraction(m)}" for f, m in self.entries)
        return f"MassAssignment({body})"


def combine(weighted: Sequence[tuple]) -> MassAssignment:
    """Weighted sum of mass assignments: sum of c_r * m_r."""
    acc: dict = {}
    for weight, m in weighted:
        weight = as_fraction(weight)
        for focal, mass in m.entries:
            acc[focal] = acc.get(focal, ZERO) + weight * mass
    return MassAssignment(acc.items())


class DiscreteFuzzySet:
    """Fuzzy set over labels: membership grade per label, grades in [0,1]."""

    __slots__ = ("grades",)

    def __init__(self, grades: Mapping[str, Rational]):
        items = []
        for label, grade in grades.items():
            g = as_fraction(grade)
            if not (0 <= g <= 1):
                raise ValueError(f"grade {g} for {label!r} outside [0,1]")
            items.append((str(label), g))
        object.__setattr__(self, "grades", tuple(sorted(items)))

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteFuzzySet is immutable")

    def as_dict(self) -> dict:
        return dict(self.grades)

    def __eq__(self, other):
        return isinstance(other, DiscreteFuzzySet) and self.grades == other.grades

    def __hash__(self):
        return hash(self.grades)

    def __repr__(self):
        body = ", ".join(f"{l}:{format_fraction(g)}" for l, g in self.grades)
        return f"DiscreteFuzzySet({body})"


def mass_from_discrete(f: DiscreteFuzzySet) -> MassAssignment:
    """Level-set masses: sort labels by descending grade; each distinct
    grade drop contributes its level set with the drop as mass. A peak
    grade below 1 leaves the deficit on the empty set."""
    positive = [(g, l) for l, g in f.grades if g > 0]
    levels = sorted({g for g, _ in positive}, reverse=True)
    entries = []
    for i, level in enumerate(levels):
        below = levels[i + 1] if i + 1 < len(levels) else ZERO
        focal = frozenset(l for g, l in positive if g >= level)
        entries.append((focal, level - below))
    peak = levels[0] if levels else ZERO
    if peak < 1:
        entries.append((EMPTY, 1 - peak))
    return MassAssignment(entries)


class PiecewiseShape:
    """Piecewise-linear membership function given by vertices (x, mu),
    zero outside the vertex span. Repeated x values describe a jump;
    membership at a jump takes the larger side (the upper envelope), so
    a crisp interval can be written (1,0),(1,1),(2,1),(2,0) or just
    (1,1),(2,1)."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: Iterable[Sequence[Rational]]):
        vs = tuple((as_fraction(x), as_fraction(m)) for x, m in vertices)
        if not vs:
            raise ValueError("a shape needs at least one vertex")
        for (x1, _), (x2, _) in zip(vs, vs[1:]):
            if x2 < x1:
                raise ValueError("vertex x values must be non-decreasing")
        for _, m in vs:
            if not (0 <= m <= 1):
                raise ValueError(f"membership {m} outside [0,1]")
        object.__setattr__(self, "vertices", vs)

    def __setattr__(self, name, value):
        raise AttributeError("PiecewiseShape is immutable")

    @property
    def height(self) -> Fraction:
        return max(m for _, m in self.vertices)

    def level_cut(self, level: Rational) -> IntervalUnion:
        """Closure of the strict cut {x : mu(x) > level}, in one pass over
        the edges (a lone vertex is an edge to itself). A jump edge
        (x1 == x2) yields its point by the crossing rule, as x2 - x1 is 0."""
        level = as_fraction(level)
        vs = self.vertices
        pieces = []
        for (x1, m1), (x2, m2) in zip(vs, vs[1:] or vs):
            if m1 > level and m2 > level:
                pieces.append(Interval(x1, x2))
            elif m1 > level or m2 > level:
                xc = x1 + (level - m1) * (x2 - x1) / (m2 - m1)
                pieces.append(Interval(x1, xc) if m1 > level else Interval(xc, x2))
        return IntervalUnion(tuple(pieces))

    def __eq__(self, other):
        return isinstance(other, PiecewiseShape) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        body = ", ".join(f"({format_fraction(x)},{format_fraction(m)})" for x, m in self.vertices)
        return f"PiecewiseShape({body})"


@dataclass(frozen=True)
class Slice:
    """One level slice: focal element holding over (level_lo, level_hi]."""

    level_lo: Fraction
    level_hi: Fraction
    focal: Focal

    def __post_init__(self):
        object.__setattr__(self, "level_lo", as_fraction(self.level_lo))
        object.__setattr__(self, "level_hi", as_fraction(self.level_hi))
        if not (0 <= self.level_lo < self.level_hi <= 1):
            raise ValueError(
                f"slice levels [{self.level_lo}, {self.level_hi}] not within [0,1]"
            )

    @property
    def mass(self) -> Fraction:
        return self.level_hi - self.level_lo


@dataclass(frozen=True)
class SlicedAssignment:
    """Mass assignment with an explicit level ordering of its slices.

    Slices partition [0, top] contiguously from 0. Duplicate focal
    elements stay as separate slices; conversion to a MassAssignment
    merges them. Slicing a fuzzy set produces focal elements that shrink
    as levels rise, but the type does not enforce that, since reversed
    slice sequences are legitimate intermediates."""

    slices: tuple

    def __post_init__(self):
        sl = tuple(self.slices)
        if not sl:
            raise ValueError("need at least one slice")
        if sl[0].level_lo != 0:
            raise ValueError("slices must start at level 0")
        for a, b in zip(sl, sl[1:]):
            if b.level_lo != a.level_hi:
                raise ValueError("slices must be contiguous")
        object.__setattr__(self, "slices", sl)

    @classmethod
    def from_mass(cls, m: MassAssignment) -> "SlicedAssignment":
        """Order focal elements by containment, biggest at the bottom.
        Fails when the nonempty focal elements are not nested."""
        def size(f: Focal) -> Fraction:
            return f.length if isinstance(f, IntervalUnion) else Fraction(len(f))

        nonempty = [(f, mass) for f, mass in m.entries if not focal_is_empty(f)]
        nonempty.sort(key=lambda e: (-size(e[0]), focal_key(e[0])))
        for (f1, _), (f2, _) in zip(nonempty, nonempty[1:]):
            if not focal_issuperset(f1, f2):
                raise ValueError(
                    f"focal elements not nested: {format_focal(f1)} vs {format_focal(f2)}"
                    "; diagonal and antidiagonal pairings need nested focal elements,"
                    " the product strategy does not"
                )
        slices = []
        level = ZERO
        for f, mass in nonempty:
            slices.append(Slice(level, level + mass, f))
            level += mass
        empty = m.empty_mass
        if empty > 0:
            slices.append(Slice(level, level + empty, EMPTY))
        return cls(tuple(slices))

    @property
    def top(self) -> Fraction:
        return self.slices[-1].level_hi

    @property
    def is_normal(self) -> bool:
        """No slice rests on the empty set, as for to_mass().is_normal."""
        return not any(focal_is_empty(s.focal) for s in self.slices)

    def reversed_levels(self) -> "SlicedAssignment":
        """Same slices stacked in the opposite order."""
        out = []
        level = ZERO
        for s in reversed(self.slices):
            out.append(Slice(level, level + s.mass, s.focal))
            level += s.mass
        return SlicedAssignment(tuple(out))

    def to_mass(self, *, tolerance: Fraction = DEFAULT_TOLERANCE) -> MassAssignment:
        return MassAssignment(
            ((s.focal, s.mass) for s in self.slices), tolerance=tolerance
        )


def slice_shape(shape: PiecewiseShape, n: int) -> SlicedAssignment:
    """Cut a shape into n equal-height slices of height(shape)/n, the
    focal element of slice k being the closure of the strict cut at the
    slice's lower level. A peak below 1 appends an empty-set slice."""
    if n < 1:
        raise ValueError("need at least one slice")
    h = shape.height
    if h == 0:
        return SlicedAssignment((Slice(ZERO, ONE, EMPTY),))
    step = h / n
    slices = [
        Slice(step * k, step * (k + 1), shape.level_cut(step * k)) for k in range(n)
    ]
    if h < 1:
        slices.append(Slice(h, ONE, EMPTY))
    return SlicedAssignment(tuple(slices))


def align_levels(a: SlicedAssignment, b: SlicedAssignment) -> list:
    """(focal_a, focal_b, height) for each level range shared by two stacks
    ending at the same level, from one merge walk over their slice tops."""
    if a.top != b.top:
        raise ValueError(f"slice stacks end at different levels: {a.top} and {b.top}")
    shared, lo, i, j = [], ZERO, 0, 0
    while lo < a.top:
        sa, sb = a.slices[i], b.slices[j]
        hi = min(sa.level_hi, sb.level_hi)
        shared.append((sa.focal, sb.focal, hi - lo))
        lo = hi
        if sa.level_hi == hi:
            i += 1
        if sb.level_hi == hi:
            j += 1
    return shared


# ---------------------------------------------------------------------------
# membership reconstruction

@dataclass(frozen=True)
class Step:
    """Constant-membership piece with explicit boundary closure."""

    lo: Fraction
    hi: Fraction
    mu: Fraction
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lo", as_fraction(self.lo))
        object.__setattr__(self, "hi", as_fraction(self.hi))
        object.__setattr__(self, "mu", as_fraction(self.mu))

    def contains(self, x: Fraction) -> bool:
        if x == self.lo:
            return not self.lo_open
        if x == self.hi:
            return not self.hi_open
        return self.lo < x < self.hi

    def __str__(self):
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return (
            f"{format_fraction(self.mu)}|{left}{format_fraction(self.lo)},"
            f"{format_fraction(self.hi)}{right}"
        )


@dataclass(frozen=True)
class NumericFuzzySet:
    """Piecewise-constant membership function as maximal constant steps.

    Steps are disjoint and ordered; adjacent steps differ in membership
    or are separated by a zero-membership gap. Zero membership is not
    stored. An endpoint shared by several focal elements can carry a
    higher value than either side, so single-point steps occur."""

    steps: tuple = ()

    def mu(self, x: Rational) -> Fraction:
        # x lies in the last step starting at or before it, or the one before
        x = as_fraction(x)
        i = bisect_right(self.steps, x, key=attrgetter("lo"))
        for s in self.steps[max(i - 2, 0) : i]:
            if s.contains(x):
                return s.mu
        return ZERO

    @property
    def is_empty(self) -> bool:
        return not self.steps

    @property
    def height(self) -> Fraction:
        return max((s.mu for s in self.steps), default=ZERO)

    @property
    def area(self) -> Fraction:
        return sum((s.mu * (s.hi - s.lo) for s in self.steps), ZERO)

    @property
    def support_hull(self) -> Interval:
        if self.is_empty:
            raise ValueError("empty fuzzy set has no support")
        return Interval(self.steps[0].lo, self.steps[-1].hi)

    def __str__(self):
        if self.is_empty:
            return "{}"
        return "{" + ", ".join(str(s) for s in self.steps) + "}"


def _numeric_focals(m: MassAssignment, use: str) -> list:
    """The nonempty focal elements of m with their masses; label focal
    elements raise TypeError naming the use."""
    focals = []
    for f, mass in m.entries:
        if isinstance(f, frozenset):
            raise TypeError(f"{use} needs numeric focal elements")
        if not f.is_empty:
            focals.append((f, mass))
    return focals


def _sweep(weighted: list, points: bool) -> list:
    """Maximal runs (lo, hi, value, lo_open, hi_open) of equal nonzero
    total weight over (IntervalUnion, weight) pairs, from one pass over
    the sorted part endpoints (see the module docstring). With points
    False only the open gaps between endpoints are valued."""
    starts: dict = {}
    ends: dict = {}
    for f, w in weighted:
        for p in f.parts:
            starts[p.lo] = starts.get(p.lo, ZERO) + w
            ends[p.hi] = ends.get(p.hi, ZERO) + w
    cs = sorted(starts.keys() | ends.keys())
    atoms = []
    total = ZERO
    for c, after in zip(cs, cs[1:] + [None]):
        total += starts.get(c, ZERO)
        if points:
            atoms.append((c, c, total, False, False))
        total -= ends.get(c, ZERO)
        if after is not None:
            atoms.append((c, after, total, True, True))
    runs = []  # consecutive atoms of one nonzero value join; zero breaks a run
    last = ZERO
    for lo, hi, value, lo_open, hi_open in atoms:
        if value != 0 and value == last:
            runs[-1] = (runs[-1][0], hi, value, runs[-1][3], hi_open)
        elif value != 0:
            runs.append((lo, hi, value, lo_open, hi_open))
        last = value
    return runs


def fuzzy_from_mass(m: MassAssignment) -> NumericFuzzySet:
    """Membership of x is the total mass of focal elements containing x."""
    focals = _numeric_focals(m, "membership reconstruction")
    return NumericFuzzySet(tuple(Step(*run) for run in _sweep(focals, True)))


# ---------------------------------------------------------------------------
# defuzzification

@dataclass(frozen=True)
class Density:
    """Piecewise-constant probability density plus unassigned (empty-set)
    mass. Boundary points carry no measure, so pieces are presented as
    closed intervals without loss."""

    pieces: tuple
    unassigned: Fraction = ZERO

    @property
    def integral(self) -> Fraction:
        return sum((d * iv.length for iv, d in self.pieces), ZERO)

    def density_at(self, x: Rational) -> Fraction:
        x = as_fraction(x)
        for iv, d in self.pieces:
            if iv.contains(x):
                return d
        return ZERO


def least_prejudiced(m: MassAssignment) -> Density:
    """Spread each focal element's mass uniformly over its length and add
    the densities. Mass on the empty set is reported separately."""
    weighted = []
    for f, mass in _numeric_focals(m, "density"):
        if f.length == 0:
            raise DegenerateSupportError(
                f"cannot spread mass over zero-length focal element {f}"
            )
        weighted.append((f, mass / f.length))
    pieces = tuple((Interval(lo, hi), d) for lo, hi, d, _, _ in _sweep(weighted, False))
    return Density(pieces, m.empty_mass)


def max_likelihood_interval(m: MassAssignment) -> IntervalUnion:
    """Region where the least-prejudiced density peaks (its closure)."""
    density = least_prejudiced(m)
    if not density.pieces:
        raise ValueError("no numeric support to take a maximum over")
    peak = max(d for _, d in density.pieces)
    return IntervalUnion(tuple(iv for iv, d in density.pieces if d == peak))


def centre_of_gravity(f: NumericFuzzySet) -> Fraction:
    area = f.area
    if area == 0:
        raise ZeroAreaError("fuzzy set has zero area")
    moment = sum((s.mu * (s.hi**2 - s.lo**2) / 2 for s in f.steps), ZERO)
    return moment / area
