"""Fuzzy sets as mass assignments over focal elements.

A mass assignment distributes probability mass over focal elements, which
here are either label sets (LabelSet, a frozenset with IntervalUnion's
focal methods) or numeric IntervalUnions; the empty focal element of
either kind is EMPTY, and as_focal brings a plain frozenset to this form.
A fuzzy set with maximum membership below 1 puts the deficit on the empty
set; masses total exactly 1, each set divided by its total where it is read.

Each input's kind and slice count are decided here, once: a
MassAssignment or SlicedAssignment refuses labels beside intervals
(ValueError(MIXED_KINDS)) and answers is_numeric and is_normal, one test
each on the stored keys for both, which the other modules read, and
slice_shape resolves the slice count and bounds it. A focal
element's one key is its part_keys (a label set's sorted labels, a
union's (lo, hi) part keys, () when empty); key_order sorts entries by it,
and keys_contain tests containment on it, keys_under meeting two scales.
Two assignments are related once, on those keys: keys_met puts both on the
scale where they meet and refuses labels beside nonempty unions
(TypeError(MIXED_KINDS)), for the distance kernel, reachability and
unify's label table.
Nesting is decided once, on those keys: chain_order orders an assignment's
focal elements widest first and names the first adjacent pair that is not
nested, and SlicedAssignment.from_mass stacks a chain by it.

Conventions that matter and are easy to get wrong:

* Slicing a piecewise-linear shape of height h into n level slices
  takes slice k's focal element as the closure of the strict cut
  {x : mu(x) > k*h/n} at the slice's lower level. For the triangle
  (1,0),(3,1),(5,0) and n = 2 this yields [1,5]:0.5 and [2,4]:0.5.
  slice_shape reads each edge once for all n levels, which then compare
  as integers. A stack of slices is (focal, mass) pairs, bottom first,
  so its levels are prefix sums; align_levels pairs two stacks in one
  merge walk over those sums as keys, and returns rows of slice indices
  with the heights as keys; product_rows returns a product's (rows, scale),
  and masses_under_lcm two assignments' mass keys as integers on one
  scale with no MAX_SCALE_BITS bound, the flows' capacities.
* A SlicedAssignment is held as keys: each slice's part keys and mass
  key, each under one scale. slice_shape keys every vertex and crossing of a
  shape over one shape-wide scale and emits the keys directly. Keys of two
  scales meet on the lcm of the two (intervals.meet_scales), each key
  times an integer (key_factor).
* Focal elements (in MassAssignment) and sweep endpoints sort as
  integers: each endpoint times the least common denominator of the
  endpoints being sorted (intervals.common_scale). Scaling by a positive
  number keeps the order of the unscaled part_keys(), so the integers
  are only a faster way to it. When that denominator passes MAX_SCALE_BITS
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
  carries from construction: from keyed, or from the distance kernel's
  one dict of part keys to mass keys (_from_keys).
  Endpoints are their integer keys and weights integers under one common
  scale (the masses', or the densities'), so the deltas and the running
  sum are integer additions, and its runs are keys too. Past
  MAX_SCALE_BITS a key or a weight is the Fraction itself, through the
  same code. centre_of_gravity reads these keys too, with no sweep.
* One builder, keyed, keys every assignment from its numbers as read
  (intervals.read): the constructors read their entries into its rows,
  and specfile hands over a document's rows (MassAssignment._from_rows).
* MassAssignment, SlicedAssignment and NumericFuzzySet are one keyed
  value (_Keyed): keys, their two scales, and a view (entries, slices,
  steps) built from the keys on first read and kept, each distinct key
  unscaled to one shared Fraction and each label set rebuilt from its
  sorted labels. Equality and hashing are the view's, within one class.
  Everything else reads the keys: the result writer (specfile.formatter)
  and the plot read them with their scales, so a distance written as a
  document builds no view. least_prejudiced unscales its pieces from the
  same sweep.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .intervals import (
    DEFAULT_TOLERANCE,
    EMPTY,
    MIXED_KINDS,
    ZERO,
    Interval,
    IntervalUnion,
    Rational,
    as_fraction,
    brief,
    common_scale,
    covers,
    cut,
    echo,
    format_fraction,
    key_factor,
    lcm_scale,
    meet_scales,
    merge_spans,
    read,
    refuse_surrogate_pairs,
    scaled,
    unscaled,
)

DEFAULT_SLICES = 100  # the one default slice count, for the library and the CLI
MAX_SLICES = 1000  # work limit on a slice count (see slice_shape)


class DegenerateSupportError(ValueError):
    """A zero-length focal element cannot spread its mass uniformly."""


class ZeroAreaError(ValueError):
    """A fuzzy set with zero area has no centre of gravity."""


# ---------------------------------------------------------------------------
# focal elements

class LabelSet(frozenset):
    """Label-set focal element: a frozenset of labels, equal to and hashing
    like the plain frozenset, with IntervalUnion's focal interface. Its
    methods take focal elements as as_focal returns them. Labels are
    strings, which sort and join (part_keys, str); any other label raises
    TypeError, and a label holding a surrogate pair, which would not read
    back from JSON, SurrogatePairError."""

    __slots__ = ()

    def __new__(cls, labels: Iterable = ()):
        self = super().__new__(cls, labels)
        for label in self:
            if not isinstance(label, str):
                raise TypeError(f"labels must be strings, got {type(label).__name__} {echo(label)}")
            if not label.isascii():
                refuse_surrogate_pairs(label, "label")
        return self

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

    def part_keys(self, scale: Optional[int] = None) -> tuple:
        """The key of a label set: its labels, sorted; scale is unused."""
        return tuple(sorted(self))

    def __str__(self) -> str:
        return "{" + ",".join(sorted(self)) + "}"

    def __repr__(self) -> str:
        # sorted, as frozenset's own order depends on the hash seed
        return f"LabelSet({sorted(self)!r})"


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


def key_order(key: tuple) -> tuple:
    """The one entry order, on part keys: by key, the empty set's () last."""
    return (not key, key)


def _unscaler(keys: Iterable, scale: Optional[int]) -> Callable:
    """The lookup from each of keys to the Fraction it stands for under
    scale, one Fraction per distinct key, shared by every value that holds
    it. Under a None scale the keys are the numbers (see unscaled), so
    nothing is built or hashed."""
    if scale is None:
        return as_fraction
    return {k: Fraction(k, scale) for k in set(keys)}.__getitem__


def focals_from_keys(keys: Sequence[tuple], scale: Optional[int]) -> list:
    """The focal elements whose part keys under scale are keys, () for the
    empty set: label sets from their sorted labels, not checked again, or
    unions merged as merge_spans returns them (see IntervalUnion.part_keys),
    one Fraction built per distinct endpoint key, shared by every part that
    holds it."""
    if not _keys_numeric(keys):
        return [frozenset.__new__(LabelSet, key) if key else EMPTY for key in keys]
    at = _unscaler((k for key in keys for span in key for k in span), scale)
    return [IntervalUnion._from_merged((at(lo), at(hi)) for lo, hi in key) if key else EMPTY
            for key in keys]


def keys_under(x, d: Optional[int]) -> list:
    """An assignment's stored part keys, in entry or slice order, as keys under
    d, a multiple of their scale or None (see key_factor); label sets keep
    their sorted labels, which have no scale."""
    f = key_factor(x._scale, d) if x.is_numeric else 1
    keys = [key for key, _ in x._keys]
    return keys if f == 1 else [tuple((lo * f, hi * f) for lo, hi in key) for key in keys]


def keys_contain(outer: tuple, inner: tuple) -> bool:
    """Whether part keys outer hold part keys inner, of one kind and scale: a
    union's spans through covers, a label set's sorted labels as a subset."""
    numeric = inner and isinstance(inner[0], tuple)
    return covers(outer, inner) if numeric else set(outer).issuperset(inner)


def keys_met(a: "_Keyed", b: "_Keyed") -> tuple:
    """(scale, keys of a, keys of b): two values' stored part keys, in entry
    or slice order, on the scale where they meet (keys_under at
    meet_scales); label sets keep their sorted labels. Label sets beside
    nonempty unions raise TypeError(MIXED_KINDS), and the empty set meets
    either kind."""
    kinds = {_keys_numeric((key for key, _ in x._keys), None) for x in (a, b)}
    if {True, False} <= kinds:
        raise TypeError(MIXED_KINDS)
    d = meet_scales(a._scale, b._scale)
    return d, keys_under(a, d), keys_under(b, d)


def chain_order(m: "MassAssignment") -> tuple:
    """(order, gap) of an assignment's stored part keys, the one nesting
    test: order holds its entry indices widest first, a stable sort,
    reversed, by (summed part lengths, part count), a label set's by
    (size, 0), so the empty set's () comes last; gap is the first adjacent
    pair (i, j) in order whose keys i do not contain keys j (keys_contain),
    or None when the focal elements form a chain. Of two nested unions of
    one length the superset has more parts, as it adds single points;
    label sets of one size are nested only when equal."""
    keys = [key for key, _ in m._keys]

    def extent(key: tuple) -> tuple:
        if key and isinstance(key[0], tuple):
            return sum(hi - lo for lo, hi in key), len(key)
        return len(key), 0

    order = sorted(range(len(keys)), key=lambda i: extent(keys[i]), reverse=True)
    pairs = zip(order, order[1:])
    return order, next(((i, j) for i, j in pairs if not keys_contain(keys[i], keys[j])), None)


def _keys_numeric(keys: Iterable[tuple], empty: Optional[bool] = True) -> Optional[bool]:
    """is_numeric of part keys: the first nonempty focal element decides, a
    union's part keys being (lo, hi) pairs and a label set's its labels;
    empty when every focal element is the empty set."""
    return next((isinstance(key[0], tuple) for key in keys if key), empty)


def sum_by_key(items: Iterable[tuple]) -> dict:
    """The masses of (key, mass) pairs summed per key, in first-seen order.
    A first mass is stored, not added to 0 (a Fraction sum past the limit)."""
    acc: dict = {}
    for key, mass in items:
        before = acc.get(key)
        acc[key] = mass if before is None else before + mass
    return acc


def _divided(keys: tuple, w: Optional[int], tolerance: Fraction) -> tuple:
    """(mass scale, keys) of (part keys, mass key) pairs under mass scale
    w, every mass divided by their total, which must lie within tolerance
    of 1 and be positive. A total of exactly 1 costs one sum of the keys;
    else an integer key sum becomes the mass scale, or past MAX_SCALE_BITS
    (w None) the Fraction keys are divided. An integer scale is then cut to
    the least its keys allow, by one gcd."""
    total = sum(mass for _, mass in keys)
    if total != (1 if w is None else w):
        exact = unscaled(total, w)
        if not exact or abs(exact - 1) > tolerance:
            raise ValueError(f"masses sum to {brief(exact)}, expected 1")
    if w is None:
        return w, keys if total == 1 else tuple((key, mass / total) for key, mass in keys)
    h = math.gcd(w, *(mass for _, mass in keys))
    if h > 1:
        keys = tuple((key, mass // h) for key, mass in keys)
    return total // h, keys


def _row(focal, mass) -> tuple:
    """An entry as keyed reads it: a label set as itself, a union as its
    spans with each end as (n, d), and the mass read (intervals.read)."""
    focal = as_focal(focal)
    if isinstance(focal, IntervalUnion):
        focal = [((lo.numerator, lo.denominator), (hi.numerator, hi.denominator))
                 for lo, hi in focal.parts]
    return focal, read(mass)


def _row_text(focal, mass) -> tuple:
    """A row's mass and merged focal element as a message writes them."""
    if not isinstance(focal, frozenset):
        focal = IntervalUnion._from_merged(
            merge_spans((Fraction(*lo), Fraction(*hi)) for lo, hi in focal))
    return brief(Fraction(*mass)), cut(str(as_focal(focal)))


def keyed(rows: Iterable[tuple], tolerance: Fraction = DEFAULT_TOLERANCE, merge: bool = True) -> tuple:
    """(scale, mass scale, keys) of rows (focal, mass): a nonempty label set
    or the ordered [lo, hi] spans of a union, ends and mass read as (n, d).
    Zero masses drop; a negative one is refused when met, labels beside
    numbers (MIXED_KINDS) once all are read. Endpoints and masses are keyed
    on the lcm of the denominators read (intervals.lcm_scale), spans
    merged, masses summed per part key in key_order, the endpoint scale cut
    to the least by one gcd and the mass scale in _divided. Past
    MAX_SCALE_BITS keys are Fractions, rekeyed on the common_scale of the
    merged values if it fits (as for "0.50000000000000000000", read over
    10**20).
    Without merge (a stack) rows keep their order, one per slice, and the
    first mass not positive is refused after the kinds."""
    kept, ends, masses = [], [], []
    labels = numbers = False
    bad = None
    for row in rows:
        focal, mass = row
        if mass[0] <= 0:
            if not merge:
                bad = bad or row
            elif mass[0]:
                raise ValueError("negative mass %s on %s" % _row_text(focal, mass))
            else:
                continue
        if isinstance(focal, frozenset):
            labels = True
        elif focal:
            numbers = True
            for lo, hi in focal:
                ends.append(lo)
                ends.append(hi)
        kept.append(row)
        masses.append(mass)
    if labels and numbers:
        raise ValueError(MIXED_KINDS)
    if bad is not None:
        raise ValueError("slice mass %s on %s is not positive" % _row_text(*bad))
    d, w = lcm_scale(q for _, q in ends), lcm_scale(q for _, q in masses)

    def part_keys(focal) -> tuple:
        if isinstance(focal, frozenset):
            return tuple(sorted(focal))
        if d is None:
            return merge_spans([(Fraction(*lo), Fraction(*hi)) for lo, hi in focal])
        return merge_spans([(a * d // b, c * d // e) for (a, b), (c, e) in focal])

    pairs = [(part_keys(f), Fraction(n, q) if w is None else n * w // q) for f, (n, q) in kept]
    if merge:
        acc = sum_by_key(pairs)
        pairs = [(key, acc[key]) for key in sorted(acc, key=key_order)]
    if d is None:
        d = common_scale(e for key, _ in pairs for span in key for e in span)
        if d is not None:
            pairs = [(tuple((scaled(lo, d), scaled(hi, d)) for lo, hi in key), mass)
                     for key, mass in pairs]
    elif d > 1:
        g = math.gcd(d, *(e for key, _ in pairs for span in key for e in span))
        if g > 1:
            d //= g
            pairs = [(tuple((lo // g, hi // g) for lo, hi in key), mass) for key, mass in pairs]
    if w is None:
        w = common_scale(mass for _, mass in pairs)
        if w is not None:
            pairs = [(key, scaled(mass, w)) for key, mass in pairs]
    return (d, *_divided(tuple(pairs), w, tolerance))


# ---------------------------------------------------------------------------
# core types

@dataclass(frozen=True, init=False, repr=False, eq=False, slots=True)
class _Keyed:
    """A value held as keys: _keys under the scales _scale and _mass_scale
    (a None scale keys numbers as themselves, see intervals.scaled), and
    _view, the value's public form, built from the keys by _build on first
    read (_viewed) and then kept. Equality and hashing are those of the
    view, between values of one class, whatever the scales. The default
    view is an assignment's (focal, mass) pairs, from (part keys, mass key)
    pairs: each distinct key unscaled to one shared Fraction, each label set
    rebuilt from its sorted labels (focals_from_keys)."""

    _scale: Optional[int]
    _mass_scale: Optional[int]
    _keys: tuple
    _view: Optional[tuple]

    @classmethod
    def _trusted(cls, scale: Optional[int], mass_scale: Optional[int], keys: tuple, view=None):
        """The value of keys under the two scales, view, when given, the
        view they stand for. Nothing is checked."""
        self = object.__new__(cls)
        _set_fields(self, scale, mass_scale, keys, view)
        return self

    def _viewed(self) -> tuple:
        view = self._view
        if view is None:
            view = self._build()
            object.__setattr__(self, "_view", view)
        return view

    def _build(self) -> tuple:
        at = _unscaler((m for _, m in self._keys), self._mass_scale)
        focals = focals_from_keys([key for key, _ in self._keys], self._scale)
        return tuple(zip(focals, (at(m) for _, m in self._keys)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._viewed() == other._viewed()

    def __hash__(self):
        return hash(self._viewed())


def _set_fields(value: _Keyed, scale, mass_scale, keys: tuple, view=None) -> None:
    """Set a keyed value's fields; with no view given, _viewed builds it."""
    for name, field_value in zip(_Keyed.__slots__, (scale, mass_scale, keys, view)):
        object.__setattr__(value, name, field_value)


class MassAssignment(_Keyed):
    """Canonical mass assignment: entries merged per focal element, zero
    masses dropped, every empty focal normalized to the one empty set,
    entries in key_order, masses summing to exactly 1: an input within the
    tolerance of 1 (never 0) is divided by its total here (_divided);
    results built from assignments are not checked again.

    A keyed value (_Keyed): per entry, the part keys of its focal element
    and the key of its mass; entries is its view. The membership and
    density sweeps, the distance kernel, the result writer, is_numeric,
    is_normal, empty_mass and len read the keys alone. __init__ reads its
    entries into rows for keyed."""

    __slots__ = ()

    def __init__(self, entries: Iterable[tuple], *, tolerance: Fraction = DEFAULT_TOLERANCE):
        _set_fields(self, *keyed((_row(f, mass) for f, mass in entries), tolerance))

    @classmethod
    def _from_keys(
        cls, masses: dict, scale: Optional[int], mass_scale: Optional[int]
    ) -> "MassAssignment":
        """The assignment, of either kind, that masses holds as keys: the
        part keys of each distinct focal element under scale (see
        focals_from_keys) mapped to its positive mass key under mass_scale,
        stored in key_order. Nothing is checked: the masses total exactly 1,
        as the masses of the distance kernel's inputs and of to_mass's stack
        do."""
        return cls._trusted(scale, mass_scale, tuple(
            (key, masses[key]) for key in sorted(masses, key=key_order)))

    @classmethod
    def _from_rows(cls, rows: Iterable[tuple], tolerance: Fraction = DEFAULT_TOLERANCE):
        """The assignment of rows as keyed reads them, as __init__ builds
        it from entries: specfile hands over the numbers as read."""
        return cls._trusted(*keyed(rows, tolerance))

    entries = property(_Keyed._viewed, doc="The (focal, mass) pairs: the view.")

    def mass_of(self, focal: Focal) -> Fraction:
        """The mass on focal, or 0: a scan of entries (see apply_type1 and
        apply_type2)."""
        focal = as_focal(focal)
        return next((mass for f, mass in self.entries if f == focal), ZERO)

    def focals(self) -> tuple:
        return tuple(f for f, _ in self.entries)

    @property
    def empty_mass(self) -> Fraction:
        # key_order puts the empty set, keyed (), last
        if not self._keys[-1][0]:
            return unscaled(self._keys[-1][1], self._mass_scale)
        return ZERO

    @property
    def is_normal(self) -> bool:
        """No mass rests on the empty set: no stored part keys are ()."""
        return all(key for key, _ in self._keys)

    @property
    def is_numeric(self) -> bool:
        """Not label sets: one kind per assignment, so the first nonempty
        focal element decides (see _keys_numeric)."""
        return _keys_numeric(key for key, _ in self._keys)

    def negated(self) -> "MassAssignment":
        """Map every numeric focal element through pointwise negation."""
        if not self.is_numeric:
            raise TypeError("negation needs numeric focal elements")
        return MassAssignment((f.negated(), m) for f, m in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self._keys)

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


@dataclass(frozen=True, init=False, repr=False, slots=True)
class DiscreteFuzzySet:
    """Fuzzy set over labels: membership grade per label, grades in [0,1].
    Labels are kept as strings, so 1 and "1" name the same label, and a
    label given twice is refused."""

    grades: tuple

    def __init__(self, grades: Mapping[str, Rational]):
        items: dict = {}
        for label, grade in grades.items():
            g = as_fraction(grade)
            if not (0 <= g <= 1):
                raise ValueError(f"grade {brief(g)} for {echo(label)} outside [0,1]")
            name = str(label)
            if name in items:
                raise ValueError(f"label {echo(name)} given twice")
            items[name] = g
        object.__setattr__(self, "grades", tuple(sorted(items.items())))

    def __repr__(self):
        body = ", ".join(f"{l}:{format_fraction(g)}" for l, g in self.grades)
        return f"DiscreteFuzzySet({body})"


def mass_from_discrete(f: DiscreteFuzzySet) -> MassAssignment:
    """Level-set masses: sort labels by descending grade; each distinct
    grade drop contributes its level set with the drop as mass. A peak
    grade below 1 leaves the deficit on the empty set."""
    at: dict = {}  # the labels at each positive grade
    for label, g in f.grades:
        if g > 0:
            at.setdefault(g, []).append(label)
    levels = sorted(at, reverse=True)
    labels, entries = [], []
    for level, below in zip(levels, levels[1:] + [ZERO]):
        labels += at[level]
        entries.append((LabelSet(labels), level - below))
    peak = levels[0] if levels else ZERO
    if peak < 1:
        entries.append((EMPTY, 1 - peak))
    return MassAssignment(entries)


@dataclass(frozen=True, init=False, repr=False, slots=True)
class PiecewiseShape:
    """Piecewise-linear membership function given by vertices (x, mu),
    zero outside the vertex span. Repeated x values describe a jump;
    membership at a jump takes the larger side (the upper envelope), so
    a crisp interval can be written (1,0),(1,1),(2,1),(2,0) or just
    (1,1),(2,1)."""

    vertices: tuple

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

    @property
    def height(self) -> Fraction:
        return max(m for _, m in self.vertices)

    def __repr__(self):
        body = ", ".join(f"({format_fraction(x)},{format_fraction(m)})" for x, m in self.vertices)
        return f"PiecewiseShape({body})"


class SlicedAssignment(_Keyed):
    """Mass assignment with an explicit level ordering of its slices.

    slices holds (focal, mass) pairs stacked bottom first from level 0,
    so each slice's levels are the sums of the masses below it and up to
    it, and the top one ends at 1 (see _divided). Duplicate focal elements stay
    as separate slices; conversion to a MassAssignment merges them.
    Slicing a fuzzy set produces focal elements that shrink as levels
    rise, but the type does not enforce that, since reversed stacks are
    legitimate intermediates.

    A keyed value (_Keyed), as a MassAssignment is: per slice, the part
    keys of its focal element and the key of its mass; slices is its view.
    slice_shape emits those keys directly, and the constructor builds them
    with keyed, without merging or sorting; align_levels, the distance
    kernel, to_mass, is_normal and is_numeric read the keys alone."""

    __slots__ = ()

    def __init__(self, entries: Iterable[tuple]):
        rows = [_row(f, mass) for f, mass in entries]
        if not rows:
            raise ValueError("need at least one slice")
        _set_fields(self, *keyed(rows, merge=False))

    @classmethod
    def from_mass(cls, m: MassAssignment) -> "SlicedAssignment":
        """m's stored keys stacked by containment, widest at the bottom
        (chain_order); its slices are built only when read. Fails when the
        nonempty focal elements are not nested."""
        order, gap = chain_order(m)
        if gap is not None:
            f1, f2 = focals_from_keys([m._keys[i][0] for i in gap], m._scale)
            raise ValueError(
                f"focal elements not nested: {cut(str(f1))} vs {cut(str(f2))}"
                "; diagonal and antidiagonal pairings need nested focal elements,"
                " the product strategy does not"
            )
        return cls._trusted(m._scale, m._mass_scale, tuple(m._keys[i] for i in order))

    slices = property(_Keyed._viewed, doc="The (focal, mass) pairs, bottom first: the view.")
    # as for to_mass(): the same tests on the stored keys, in any slice order
    is_normal = MassAssignment.is_normal
    is_numeric = MassAssignment.is_numeric

    def reversed_levels(self) -> "SlicedAssignment":
        """Same slices stacked in the opposite order."""
        slices = None if self._view is None else self._view[::-1]
        return self._trusted(self._scale, self._mass_scale, self._keys[::-1], slices)

    def to_mass(self) -> MassAssignment:
        """The slices merged per focal element, from the keys
        (MassAssignment._from_keys)."""
        return MassAssignment._from_keys(sum_by_key(self._keys), self._scale, self._mass_scale)

    def __repr__(self):
        return f"SlicedAssignment(slices={self.slices!r})"


def slice_shape(shape: PiecewiseShape, n: Optional[int] = None) -> SlicedAssignment:
    """Cut a shape into n equal-height slices of height(shape)/n, the
    focal element of slice k being the closure of the strict cut
    {x : mu(x) > k*h/n} at the slice's lower level. A peak below 1
    appends an empty-set slice. n is DEFAULT_SLICES when None, at most MAX_SLICES.

    Each edge is read once (a lone vertex is an edge to itself). A vertex
    of membership m lies above level k*h/n exactly when k < ceil(m*n/h),
    so levels compare as integers. An edge of slope s = (x2-x1)/(m2-m1)
    crosses level k*h/n at a + k*b, a = x1 - m1*s and b = s*h/n; a jump
    edge (x1 == x2) crosses at its point, as its s is 0. Every vertex x
    and every a and b is keyed under one shape-wide scale, their
    common_scale, so a crossing's key is key(a) + k*key(b), an integer
    (past MAX_SCALE_BITS the Fraction itself), and the stack holds the
    keys; its slices are built only when read. Parts come in x order, so
    joining is one pass: edges meeting at a vertex above the level join
    as they are walked, and a part that opens where the last one closed (a
    jump down and up at one x, or a vertex exactly at the level) reopens
    it."""
    n = DEFAULT_SLICES if n is None else n
    if n < 1:
        raise ValueError("need at least one slice")
    if n > MAX_SLICES:
        raise ValueError(f"slice count {brief(n)} exceeds the limit {MAX_SLICES}")
    h = shape.height
    if h == 0:
        return SlicedAssignment._trusted(1, 1, (((), 1),))
    step = h / n
    vs = [(x, m, math.ceil(m * n / h)) for x, m in shape.vertices]
    lines = []
    for (x1, m1, t1), (x2, m2, t2) in zip(vs, vs[1:] or vs):
        s = (x2 - x1) / (m2 - m1) if t1 != t2 else ZERO
        lines.append((x1, t1, t2, x1 - m1 * s, step * s))
    d = common_scale([x for x, _ in shape.vertices] + [v for *_, a, b in lines for v in (a, b)])
    edges = [(scaled(x1, d), t1, t2, scaled(a, d), scaled(b, d)) for x1, t1, t2, a, b in lines]
    x_end = scaled(shape.vertices[-1][0], d)
    w = common_scale((step, 1 - h))
    step_key = scaled(step, w)
    keys = []
    for k in range(n):
        parts, lo = [], None
        for x1, t1, t2, c, dc in edges:
            if k < t1:
                if lo is None:
                    lo = x1
                if k >= t2:
                    parts.append((lo, c + k * dc))
                    lo = None
            elif k < t2:
                lo = c + k * dc
                if parts and parts[-1][1] == lo:  # opens where the last part closed
                    lo = parts.pop()[0]
        if lo is not None:
            parts.append((lo, x_end))
        keys.append((tuple(parts), step_key))
    if h < 1:
        keys.append(((), scaled(1 - h, w)))
    return SlicedAssignment._trusted(d, w, tuple(keys))


def align_levels(a: SlicedAssignment, b: SlicedAssignment) -> tuple:
    """(rows, scale): a row (i, j, height) for each level range shared by
    slice i of a and slice j of b, from one merge walk over the levels at
    which their slices end, summed as mass keys under scale, where the
    stacks' mass scales meet (see meet_scales). Each height is such a key,
    and the heights total 1, where both stacks end."""
    w = meet_scales(a._mass_scale, b._mass_scale)
    fa, fb = key_factor(a._mass_scale, w), key_factor(b._mass_scale, w)
    masses_b = [mass * fb for _, mass in b._keys]
    shared, lo, hi_a, hi_b, j = [], 0, 0, 0, -1
    for i, (_, mass) in enumerate(a._keys):
        hi_a += mass * fa
        while lo < hi_a:
            if hi_b == lo:
                j += 1
                hi_b += masses_b[j]
            hi = min(hi_a, hi_b)
            shared.append((i, j, hi - lo))
            lo = hi
    return shared, w


def product_rows(a: MassAssignment, b: MassAssignment) -> tuple:
    """(rows, scale): a row (i, j, mass key) per entry i of a and j of b,
    the product of their mass keys where the two mass scales meet, so a key
    under scale, that scale squared. rows is a generator: it lists no cell."""
    w = meet_scales(a._mass_scale, b._mass_scale)
    fa, fb = key_factor(a._mass_scale, w), key_factor(b._mass_scale, w)
    masses_a = [mass * fa for _, mass in a._keys]
    masses_b = [mass * fb for _, mass in b._keys]
    rows = ((i, j, ma * mb) for i, ma in enumerate(masses_a) for j, mb in enumerate(masses_b))
    return rows, None if w is None else w * w


def masses_under_lcm(a: MassAssignment, b: MassAssignment) -> tuple:
    """(scale, masses of a, masses of b): both assignments' mass keys as
    integers on one scale, in entry order, for a flow's capacities. The
    scale is the lcm of the two mass scales, with no MAX_SCALE_BITS bound;
    where either is None, the lcm of the denominators of every mass."""
    wa, wb = a._mass_scale, b._mass_scale
    if wa is None or wb is None:
        ma = [unscaled(mass, wa) for _, mass in a._keys]
        mb = [unscaled(mass, wb) for _, mass in b._keys]
        w = math.lcm(*(mass.denominator for mass in (*ma, *mb)))
        return w, [scaled(mass, w) for mass in ma], [scaled(mass, w) for mass in mb]
    w = math.lcm(wa, wb)
    fa, fb = w // wa, w // wb
    return w, [mass * fa for _, mass in a._keys], [mass * fb for _, mass in b._keys]


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


class NumericFuzzySet(_Keyed):
    """Piecewise-constant membership function as maximal constant steps.

    Steps are disjoint and ordered; adjacent steps differ in membership
    or are separated by a zero-membership gap. Zero membership is not
    stored. An endpoint shared by several focal elements can carry a
    higher value than either side, so single-point steps occur.

    A keyed value (_Keyed) whose keys are runs (lo, hi, mu, lo_open,
    hi_open): per step, the keys of its ends under _scale, of its
    membership, a sum of mass keys, under _mass_scale, and its two closure
    flags; steps is its view. fuzzy_from_mass hands over its sweep's runs
    on the mass assignment's own scales; NumericFuzzySet(steps) keys the
    steps it is given, each field over its common_scale, and keeps them as
    given. The result writer and the plot read the runs."""

    __slots__ = ()

    def __init__(self, steps: Iterable[Step] = ()):
        steps = tuple(steps)
        d = common_scale(e for s in steps for e in (s.lo, s.hi))
        w = common_scale(s.mu for s in steps)
        runs = tuple(
            (scaled(s.lo, d), scaled(s.hi, d), scaled(s.mu, w), s.lo_open, s.hi_open)
            for s in steps
        )
        _set_fields(self, d, w, runs, steps)

    def _build(self) -> tuple:
        at = _unscaler((k for lo, hi, *_ in self._keys for k in (lo, hi)), self._scale)
        mus = _unscaler((mu for _, _, mu, _, _ in self._keys), self._mass_scale)
        return tuple(
            Step(at(lo), at(hi), mus(mu), lo_open, hi_open)
            for lo, hi, mu, lo_open, hi_open in self._keys
        )

    steps = property(_Keyed._viewed, doc="The Steps: the view.")

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
        return not self._keys

    @property
    def height(self) -> Fraction:
        return max((s.mu for s in self.steps), default=ZERO)

    def __repr__(self):
        return f"NumericFuzzySet(steps={self.steps!r})"

    def __str__(self):
        if self.is_empty:
            return "{}"
        return "{" + ", ".join(str(s) for s in self.steps) + "}"


def _numeric_keys(m: MassAssignment, use: str) -> list:
    """The (part keys, mass key) pairs of the nonempty focal elements of m;
    label focal elements raise TypeError naming the use."""
    if not m.is_numeric:
        raise TypeError(f"{use} needs numeric focal elements")
    return [(keys, mass) for keys, mass in m._keys if keys]


def _sweep(keyed: list, points: bool) -> tuple:
    """Maximal runs (lo, hi, value, lo_open, hi_open) of equal nonzero
    total weight over (part keys, weight key) pairs, from one pass over
    the sorted endpoint keys (see the module docstring). A run is keys
    alone: its ends are endpoint keys, its value a sum of weight keys.
    With points False only the open gaps between endpoints are valued."""
    deltas: dict = {}  # endpoint key -> [start weight, end weight]
    for keys, w in keyed:
        for lo, hi in keys:
            e = deltas.get(lo)
            if e is None:
                deltas[lo] = [w, 0]
            else:
                e[0] += w
            e = deltas.get(hi)
            if e is None:
                deltas[hi] = [0, w]
            else:
                e[1] += w
    atoms = []
    total, x = 0, None
    for k in sorted(deltas):
        start, end = deltas[k]
        if x is not None:
            atoms.append((x, k, total, True, True))
        x = k
        if start:
            total += start
        if points:
            atoms.append((x, x, total, False, False))
        if end:
            total -= end
    runs = []  # consecutive atoms of one nonzero total join; zero breaks a run
    last = 0
    for atom in atoms:
        value = atom[2]
        if value and value == last:
            lo, _, _, lo_open, _ = runs[-1]
            runs[-1] = (lo, atom[1], value, lo_open, atom[4])
        elif value:
            runs.append(atom)
        last = value
    return tuple(runs)


def fuzzy_from_mass(m: MassAssignment) -> NumericFuzzySet:
    """Membership of x is the total mass of focal elements containing x."""
    runs = _sweep(_numeric_keys(m, "membership reconstruction"), True)
    return NumericFuzzySet._trusted(m._scale, m._mass_scale, runs)


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
    keyed = _numeric_keys(m, "density")
    densities = []
    for keys, mass in keyed:
        length = sum(hi - lo for lo, hi in keys)
        if length == 0:
            f = focals_from_keys([keys], m._scale)[0]
            raise DegenerateSupportError(
                f"cannot spread mass over zero-length focal element {cut(str(f))}"
            )
        densities.append(unscaled(mass, m._mass_scale) / unscaled(length, m._scale))
    scale = common_scale(densities)
    runs = _sweep([(keys, scaled(x, scale)) for (keys, _), x in zip(keyed, densities)], False)
    at = _unscaler((k for lo, hi, *_ in runs for k in (lo, hi)), m._scale)
    values = _unscaler((value for _, _, value, _, _ in runs), scale)
    pieces = tuple(
        (Interval._make((at(lo), at(hi))), values(value)) for lo, hi, value, _, _ in runs
    )
    return Density(pieces, m.empty_mass)


def max_likelihood_interval(m: MassAssignment) -> IntervalUnion:
    """Region where the least-prejudiced density peaks (its closure)."""
    density = least_prejudiced(m)
    if not density.pieces:
        raise ValueError("no numeric support to take a maximum over")
    peak = max(d for _, d in density.pieces)
    return IntervalUnion(tuple(iv for iv, d in density.pieces if d == peak))


def centre_of_gravity(m: MassAssignment) -> Fraction:
    """Moment over area of m's membership, sum m_i * sum(hi^2 - lo^2) over
    2 * sum m_i * |f_i|, on the keys: the mass scale cancels out."""
    area = moment = 0
    for keys, mass in _numeric_keys(m, "centre of gravity"):
        area += mass * sum(hi - lo for lo, hi in keys)
        moment += mass * sum(hi * hi - lo * lo for lo, hi in keys)
    if area == 0:
        raise ZeroAreaError("fuzzy set has zero area")
    return Fraction(moment, 2 * area * (m._scale or 1))
