"""Fuzzy sets as mass assignments over focal elements.

A mass assignment distributes probability mass over focal elements, which
here are either label sets (LabelSet, a frozenset with IntervalUnion's
focal methods) or numeric IntervalUnions; the empty focal element of
either kind is EMPTY, and as_focal brings a plain frozenset to this form.
A fuzzy set with maximum membership below 1 puts the deficit on the empty
set, so masses always total 1.

Conventions that matter and are easy to get wrong:

* Slicing a piecewise-linear shape of height h into n level slices
  takes slice k's focal element as the closure of the strict cut
  {x : mu(x) > k*h/n} at the slice's lower level. For the triangle
  (1,0),(3,1),(5,0) and n = 2 this yields [1,5]:0.5 and [2,4]:0.5.
  slice_shape reads each edge once for all n levels, which then compare
  as integers. A stack of slices is (focal, mass) pairs, bottom first,
  so its levels are prefix sums; align_levels pairs two stacks in one
  merge walk over those sums as keys, and returns the heights as keys.
* Focal elements (in MassAssignment) and sweep endpoints sort as
  integers: each endpoint times the least common denominator of the
  endpoints being sorted (intervals.common_scale). Scaling by a positive
  number keeps the order that sort_key() defines, so the integers are
  only a faster way to it. When that denominator passes MAX_SCALE_BITS
  bits, as many distinct prime denominators make it, the keys stay
  Fractions, so no key grows with the number of endpoints.
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
* The sweep runs on the keys a MassAssignment was built on, which it
  carries from construction: from __init__'s sort keys, or from the
  distance kernel's one dict of part keys to mass keys (_from_keys).
  Endpoints are their integer keys and weights integers under one common
  scale (the masses', or the densities'), so the deltas and the running
  sum are integer additions; each endpoint is the Fraction its part
  already holds, and a Fraction is built once per value of a run.
  Past MAX_SCALE_BITS a key or a weight is the Fraction itself, through
  the same code.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .intervals import (
    DEFAULT_TOLERANCE,
    EMPTY,
    MIXED_KINDS,
    ONE,
    ZERO,
    Interval,
    IntervalUnion,
    Rational,
    as_fraction,
    brief,
    common_scale,
    cut,
    echo,
    format_fraction,
    scaled,
    unscaled,
)


class DegenerateSupportError(ValueError):
    """A zero-length focal element cannot spread its mass uniformly."""


class ZeroAreaError(ValueError):
    """A fuzzy set with zero area has no centre of gravity."""


# ---------------------------------------------------------------------------
# focal elements

class LabelSet(frozenset):
    """Label-set focal element: a frozenset of labels, equal to and hashing
    like the plain frozenset, with IntervalUnion's focal interface. Its
    methods take focal elements as as_focal returns them."""

    __slots__ = ()

    @property
    def is_empty(self) -> bool:
        return not self

    def issubset(self, other) -> bool:
        return self <= _labels(other)

    def issuperset(self, other) -> bool:
        return self >= _labels(other)

    def intersects(self, other) -> bool:
        return not self.isdisjoint(_labels(other))

    def union(self, other) -> "Focal":
        return as_focal(self | _labels(other))

    def intersection(self, other) -> "Focal":
        return as_focal(self & _labels(other))

    def sort_key(self, scale: Optional[int] = None) -> tuple:
        return (0, 0, tuple(sorted(self)))

    def __str__(self) -> str:
        return "{" + ",".join(sorted(self)) + "}"


Focal = Union[IntervalUnion, LabelSet]


def _labels(other) -> frozenset:
    """The labels of the other operand of a label set's focal method: none
    for the empty union; labels and numbers do not mix."""
    if isinstance(other, IntervalUnion):
        if other.is_empty:
            return frozenset()
        raise TypeError(MIXED_KINDS)
    return other


def as_focal(value) -> Focal:
    """The canonical focal element for value: a frozenset of labels becomes
    a LabelSet, and an empty focal element of either kind becomes EMPTY."""
    if isinstance(value, IntervalUnion):
        return EMPTY if value.is_empty else value
    if isinstance(value, frozenset):
        if not value:
            return EMPTY
        return value if isinstance(value, LabelSet) else LabelSet(value)
    raise TypeError(f"not a focal element: {type(value).__name__}")


def focal_issuperset(a: Focal, g: Focal) -> bool:
    """a.issuperset(g), kept under this name because the benchmark's
    reachability-edge counter (perfbench/spans.py) calls it."""
    return a.issuperset(g)


def endpoint_scale(focals: Iterable[Focal]) -> Optional[int]:
    """The common_scale of every part endpoint of the numeric focal
    elements."""
    return common_scale(
        e for f in focals if isinstance(f, IntervalUnion) for p in f.parts for e in (p.lo, p.hi)
    )


def focals_from_keys(keys: Sequence[tuple], scale: Optional[int]) -> list:
    """The numeric focal elements whose part keys under scale are keys,
    each merged as merge_spans returns them, () for the empty set (see
    IntervalUnion.part_keys). One Fraction is built per distinct endpoint
    key, shared by every part that holds it."""
    at = {k: unscaled(k, scale) for k in {k for key in keys for span in key for k in span}}
    return [IntervalUnion._from_merged((at[lo], at[hi]) for lo, hi in key) if key else EMPTY
            for key in keys]


def _checked_total(total: Fraction, tolerance: Fraction) -> Fraction:
    """total, the exact sum of the masses, which must lie within tolerance
    of 1."""
    if abs(total - 1) > tolerance:
        raise ValueError(f"masses sum to {brief(total)}, expected 1")
    return total


# ---------------------------------------------------------------------------
# core types

class MassAssignment:
    """Canonical mass assignment: entries merged per focal element, zero
    masses dropped, every empty focal normalized to the one empty set,
    entries sorted deterministically, masses summing to 1 (within the
    tolerance, for inputs that arrive as rounded decimals). total is that
    exact sum. The keys the entries were sorted and summed on stay in
    private slots (see _set) for the membership and density sweeps."""

    __slots__ = ("entries", "total", "_scale", "_mass_scale", "_keys")

    def __init__(self, entries: Iterable[tuple], *, tolerance: Fraction = DEFAULT_TOLERANCE):
        positive = []
        for focal, mass in entries:
            focal, mass = as_focal(focal), as_fraction(mass)
            if mass < 0:
                raise ValueError(f"negative mass {brief(mass)} on {cut(str(focal))}")
            if mass != 0:
                positive.append((focal, mass))
        d = endpoint_scale(f for f, _ in positive)
        # merged on sort keys, which are distinct for distinct focal elements
        # and hash as integers, where a focal element hashes its Fractions
        merged: dict = {}
        for focal, mass in positive:
            k = focal.sort_key(d)
            e = merged.get(k)
            if e is None:
                merged[k] = [focal, mass]
            else:
                e[1] += mass
        order = sorted(merged)
        w = common_scale(mass for _, mass in merged.values())
        # a union's sort key is (0, 1, part_keys), a label set's (0, 0, labels)
        keys = tuple((k[2] if k[:2] == (0, 1) else (), scaled(merged[k][1], w)) for k in order)
        total = _checked_total(unscaled(sum(mass for _, mass in keys), w), tolerance)
        self._set(tuple(tuple(merged[k]) for k in order), total, d, w, keys)

    @classmethod
    def _from_keys(
        cls, masses: dict, scale: Optional[int], mass_scale: Optional[int]
    ) -> "MassAssignment":
        """The numeric assignment that masses holds as keys: the part keys
        of each distinct focal element under scale (see focals_from_keys)
        mapped to its positive mass key under mass_scale. Entries, stored
        keys and total all come from that one dict, in sort_key order: by
        keys, the empty set last. Only the total is checked, as __init__
        checks it at the default tolerance."""
        order = sorted(masses, key=lambda key: (not key, key))
        keys = tuple((key, masses[key]) for key in order)
        at = {m: unscaled(m, mass_scale) for m in set(masses.values())}
        entries = tuple(zip(focals_from_keys(order, scale), (at[m] for _, m in keys)))
        total = _checked_total(unscaled(sum(masses.values()), mass_scale), DEFAULT_TOLERANCE)
        self = object.__new__(cls)
        self._set(entries, total, scale, mass_scale, keys)
        return self

    def _set(self, entries, total, scale, mass_scale, keys) -> None:
        """Fill the slots. keys holds, per entry, the (lo, hi) keys of its
        parts under the endpoint scale (() for a label set or the empty
        set) and its mass key under mass_scale; a None scale keys numbers
        as themselves (see intervals.scaled). Equality and hashing read
        entries alone."""
        for name, value in zip(self.__slots__, (entries, total, scale, mass_scale, keys)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("MassAssignment is immutable")

    def mass_of(self, focal: Focal) -> Fraction:
        """The mass on focal, or 0: a scan of entries (see linear_combination)."""
        focal = as_focal(focal)
        return next((mass for f, mass in self.entries if f == focal), ZERO)

    def focals(self) -> tuple:
        return tuple(f for f, _ in self.entries)

    @property
    def empty_mass(self) -> Fraction:
        # The empty set sorts last in both constructors: its sort_key is (1,),
        # and _from_keys orders its key () last.
        if self.entries and self.entries[-1][0].is_empty:
            return self.entries[-1][1]
        return ZERO

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
        body = ", ".join(f"{f}:{format_fraction(m)}" for f, m in self.entries)
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
                raise ValueError(f"grade {brief(g)} for {echo(label)} outside [0,1]")
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
        focal = LabelSet(l for g, l in positive if g >= level)
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
                raise ValueError(f"membership {brief(m)} outside [0,1]")
        object.__setattr__(self, "vertices", vs)

    def __setattr__(self, name, value):
        raise AttributeError("PiecewiseShape is immutable")

    @property
    def height(self) -> Fraction:
        return max(m for _, m in self.vertices)

    def __eq__(self, other):
        return isinstance(other, PiecewiseShape) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        body = ", ".join(f"({format_fraction(x)},{format_fraction(m)})" for x, m in self.vertices)
        return f"PiecewiseShape({body})"


@dataclass(frozen=True, init=False)
class SlicedAssignment:
    """Mass assignment with an explicit level ordering of its slices.

    slices holds (focal, mass) pairs stacked bottom first from level 0,
    so each slice's levels are the sums of the masses below it and up to
    it, and top is the sum of all of them. Duplicate focal elements stay
    as separate slices; conversion to a MassAssignment merges them.
    Slicing a fuzzy set produces focal elements that shrink as levels
    rise, but the type does not enforce that, since reversed stacks are
    legitimate intermediates."""

    slices: tuple
    top: Fraction

    def __init__(self, entries: Iterable[tuple]):
        slices = tuple((as_focal(f), as_fraction(mass)) for f, mass in entries)
        if not slices:
            raise ValueError("need at least one slice")
        for f, mass in slices:
            if mass <= 0:
                raise ValueError(f"slice mass {brief(mass)} on {cut(str(f))} is not positive")
        top = sum((mass for _, mass in slices), ZERO)
        if top > 1:
            raise ValueError(f"slice masses sum to {brief(top)}, over 1")
        object.__setattr__(self, "slices", slices)
        object.__setattr__(self, "top", top)

    @classmethod
    def _trusted(cls, slices: tuple, top: Fraction) -> "SlicedAssignment":
        """The stack of slices already valid: (focal, mass) pairs with
        focal elements as as_focal returns them and positive Fraction
        masses, with top their exact sum. Nothing is checked."""
        self = object.__new__(cls)
        object.__setattr__(self, "slices", slices)
        object.__setattr__(self, "top", top)
        return self

    @classmethod
    def from_mass(cls, m: MassAssignment) -> "SlicedAssignment":
        """Order focal elements by containment, biggest at the bottom.
        Fails when the nonempty focal elements are not nested."""
        def size(f: Focal) -> tuple:
            # Of two nested unions of one length, the superset has more parts:
            # it adds single points. Label sets of one size are nested only
            # when equal.
            if isinstance(f, IntervalUnion):
                return (f.length, len(f.parts))
            return (Fraction(len(f)), 0)

        # sort is stable and entries come in sort_key order, which keeps the
        # empty set, of size 0, no parts and contained in any set, last
        stack = sorted(m.entries, key=lambda e: size(e[0]), reverse=True)
        for (f1, _), (f2, _) in zip(stack, stack[1:]):
            if not f1.issuperset(f2):
                raise ValueError(
                    f"focal elements not nested: {cut(str(f1))} vs {cut(str(f2))}"
                    "; diagonal and antidiagonal pairings need nested focal elements,"
                    " the product strategy does not"
                )
        return cls._trusted(tuple(stack), m.total)

    @property
    def is_normal(self) -> bool:
        """No slice rests on the empty set, as for to_mass().is_normal."""
        return not any(f.is_empty for f, _ in self.slices)

    def reversed_levels(self) -> "SlicedAssignment":
        """Same slices stacked in the opposite order."""
        return SlicedAssignment._trusted(self.slices[::-1], self.top)

    def to_mass(self) -> MassAssignment:
        return MassAssignment(self.slices)


def slice_shape(shape: PiecewiseShape, n: int) -> SlicedAssignment:
    """Cut a shape into n equal-height slices of height(shape)/n, the
    focal element of slice k being the closure of the strict cut
    {x : mu(x) > k*h/n} at the slice's lower level. A peak below 1
    appends an empty-set slice.

    Each edge is read once (a lone vertex is an edge to itself). A vertex
    of membership m lies above level k*h/n exactly when k < ceil(m*n/h),
    so levels compare as integers. An edge of slope s = (x2-x1)/(m2-m1)
    crosses level k*h/n at a + k*b, a = x1 - m1*s and b = s*h/n, kept as
    (c + k*dc)/q over one denominator q; a jump edge (x1 == x2) crosses
    at its point, as its s is 0. Parts come in x order, so joining is one
    pass: edges meeting at a vertex above the level join as they are
    walked, and a part that opens where the last one closed (a jump down
    and up at one x, or a vertex exactly at the level) reopens it."""
    if n < 1:
        raise ValueError("need at least one slice")
    h = shape.height
    if h == 0:
        return SlicedAssignment._trusted(((EMPTY, ONE),), ONE)
    step = h / n
    x_end = shape.vertices[-1][0]
    vs = [(x, m, math.ceil(m * n / h)) for x, m in shape.vertices]
    edges = []
    for (x1, m1, t1), (x2, m2, t2) in zip(vs, vs[1:] or vs):
        c = dc = q = None
        if t1 != t2:
            s = (x2 - x1) / (m2 - m1)
            a, b = x1 - m1 * s, step * s
            q = math.lcm(a.denominator, b.denominator)
            c, dc = scaled(a, q), scaled(b, q)
        edges.append((x1, x2, t1, t2, c, dc, q))
    slices = []
    for k in range(n):
        parts, lo = [], None
        for x1, x2, t1, t2, c, dc, q in edges:
            if k < t1:
                if lo is None:
                    lo = x1
                if k >= t2:
                    parts.append((lo, Fraction(c + k * dc, q)))
                    lo = None
            elif k < t2:
                lo = Fraction(c + k * dc, q)
                if parts and parts[-1][1] == lo:  # opens where the last part closed
                    lo = parts.pop()[0]
        if lo is not None:
            parts.append((lo, x_end))
        slices.append((IntervalUnion._from_merged(parts), step))
    if h < 1:
        slices.append((EMPTY, 1 - h))
    return SlicedAssignment._trusted(tuple(slices), ONE)


def align_levels(a: SlicedAssignment, b: SlicedAssignment) -> tuple:
    """(rows, scale): a row (focal_a, focal_b, height) for each level range
    shared by two stacks ending at the same level, from one merge walk over
    the levels at which their slices end, summed as keys under scale, the
    masses' common_scale. Each height is such a key (see scaled)."""
    if a.top != b.top:
        raise ValueError(
            f"slice stacks end at different levels: {brief(a.top)} and {brief(b.top)}"
        )
    w = common_scale(mass for _, mass in a.slices + b.slices)
    shared, lo, hi_a, hi_b, rest_b = [], 0, 0, 0, iter(b.slices)
    for fa, mass in a.slices:
        hi_a += scaled(mass, w)
        while lo < hi_a:
            if hi_b == lo:
                fb, mass = next(rest_b)
                hi_b += scaled(mass, w)
            hi = min(hi_a, hi_b)
            shared.append((fa, fb, hi - lo))
            lo = hi
    return shared, w


# ---------------------------------------------------------------------------
# membership reconstruction

class Step(NamedTuple):
    """Constant-membership piece with explicit boundary closure, stored as given."""

    lo: Fraction
    hi: Fraction
    mu: Fraction
    lo_open: bool = False
    hi_open: bool = False

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
    """(focal, part keys, mass key) for the nonempty focal elements of m;
    label focal elements raise TypeError naming the use."""
    focals = []
    for (f, _), (keys, mass) in zip(m.entries, m._keys):
        if isinstance(f, frozenset):
            raise TypeError(f"{use} needs numeric focal elements")
        if keys:
            focals.append((f, keys, mass))
    return focals


def _sweep(keyed: list, scale: Optional[int], points: bool) -> list:
    """Maximal runs (lo, hi, value, lo_open, hi_open) of equal nonzero
    total weight over (IntervalUnion, part keys, weight key) triples with
    weights keyed under scale, from one pass over the sorted endpoint keys
    (see the module docstring). Totals stay keys until a run is done; each
    endpoint is the Fraction its part already holds. With points False
    only the open gaps between endpoints are valued."""
    deltas: dict = {}  # endpoint key -> [endpoint, start weight, end weight]
    for f, keys, w in keyed:
        for p, (lo, hi) in zip(f.parts, keys):
            e = deltas.get(lo)
            if e is None:
                deltas[lo] = [p.lo, w, 0]
            else:
                e[1] += w
            e = deltas.get(hi)
            if e is None:
                deltas[hi] = [p.hi, 0, w]
            else:
                e[2] += w
    atoms = []
    total, x = 0, None
    for k in sorted(deltas):
        after, start, end = deltas[k]
        if x is not None:
            atoms.append((x, after, total, True, True))
        x = after
        if start:
            total += start
        if points:
            atoms.append((x, x, total, False, False))
        if end:
            total -= end
    runs = []  # consecutive atoms of one nonzero total join; zero breaks a run
    last = 0
    for lo, hi, value, lo_open, hi_open in atoms:
        if value and value == last:
            runs[-1][1], runs[-1][4] = hi, hi_open
        elif value:
            runs.append([lo, hi, value, lo_open, hi_open])
        last = value
    if scale is not None:
        values: dict = {}  # total key -> its Fraction, built once
        for run in runs:
            v = values.get(run[2])
            if v is None:
                v = values[run[2]] = Fraction(run[2], scale)
            run[2] = v
    return runs


def fuzzy_from_mass(m: MassAssignment) -> NumericFuzzySet:
    """Membership of x is the total mass of focal elements containing x."""
    focals = _numeric_focals(m, "membership reconstruction")
    return NumericFuzzySet(tuple(Step(*run) for run in _sweep(focals, m._mass_scale, True)))


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
    focals = _numeric_focals(m, "density")
    densities = []
    for f, keys, mass in focals:
        length = sum(hi - lo for lo, hi in keys)
        if length == 0:
            raise DegenerateSupportError(
                f"cannot spread mass over zero-length focal element {cut(str(f))}"
            )
        densities.append(unscaled(mass, m._mass_scale) / unscaled(length, m._scale))
    scale = common_scale(densities)
    keyed = [(f, keys, scaled(x, scale)) for (f, keys, _), x in zip(focals, densities)]
    pieces = tuple((Interval(lo, hi), value) for lo, hi, value, _, _ in _sweep(keyed, scale, False))
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
    # halved once, after the sum, so integer-valued steps stay exact
    moment = sum((s.mu * (s.hi**2 - s.lo**2) for s in f.steps), ZERO) / 2
    return moment / area
