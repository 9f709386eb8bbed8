"""Fuzzy distance between two fuzzy sets, itself a fuzzy set.

The distance between two focal elements is the set of differences
between their points: directional keeps the sign of b - a, the plain
distance takes absolute values. Pairing the two mass assignments' focal
elements is a choice of joint distribution over cells:

* PRODUCT treats them as independent,
* DIAGONAL pairs level slices bottom-up over their shared level ranges,
* ANTIDIAGONAL pairs the lowest slice of one with the highest of the
  other; for uniform slicings this is slice k against slice n+1-k.

Each input is normalised once: a shape is sliced at n_slices, default
DEFAULT_SLICES (the one default, for the library and the CLI alike), and
mass or sliced assignments pass through. The strategy is resolved from
those inputs and reported in the result. Diagonal pairings need a level
ordering, so they stack a mass assignment's focal elements by size;
distances between cells of the empty set stay on the empty set.

Every strategy builds its cells in one kernel, in the integer key space
of intervals.common_scale. Each input focal element becomes its (lo, hi)
endpoint keys once; a cell's bounds are differences of those keys,
folded onto the nonnegative axis unless directional and merged by
intervals.merge_spans, and its mass, an integer under the masses' own
common scale, is summed into one dict keyed by the cell's keys.
Fractions are built once per distinct endpoint key and once per distinct
mass, shared by every focal element that holds them, and the result
reaches MassAssignment already merged and in order, so only its total is
checked there. The result keeps its keys and scales, so its membership
and density sweep them without scaling any endpoint again (see mass).
Past MAX_SCALE_BITS a scale is None and the keys are the Fractions
themselves, through the same code.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Union

from .intervals import EMPTY, IntervalUnion, common_scale, merge_spans, scaled, unscaled
from .mass import (
    MassAssignment,
    NumericFuzzySet,
    PiecewiseShape,
    SlicedAssignment,
    align_levels,
    endpoint_scale,
    fuzzy_from_mass,
    slice_shape,
)

DEFAULT_SLICES = 100
MAX_SLICES = 1000  # work limits: a subnormal stack adds an empty slice
MAX_PRODUCT_CELLS = (MAX_SLICES + 1) ** 2

DistanceInput = Union[PiecewiseShape, MassAssignment, SlicedAssignment]
Normalised = Union[MassAssignment, SlicedAssignment]


class Strategy(Enum):
    PRODUCT = "product"
    DIAGONAL = "diagonal"
    ANTIDIAGONAL = "antidiagonal"


def _keys(f: IntervalUnion, d: Optional[int]) -> tuple:
    """f's parts as (lo, hi) keys under the common scale d (see scaled)."""
    return tuple((scaled(p.lo, d), scaled(p.hi, d)) for p in f.parts)


def _cell(ka: tuple, kb: tuple, directional: bool) -> tuple:
    """Keys of the cell between focal elements a and b given as keys: for
    each part x of a and y of b the bounds (y.lo - x.hi, y.hi - x.lo) of
    {y - x}, folded onto the nonnegative axis unless directional, then
    merged; () when either side is empty."""
    spans = [(qlo - phi, qhi - plo) for plo, phi in ka for qlo, qhi in kb]
    if not directional:
        spans = [
            (lo, hi) if lo >= 0 else (-hi, -lo) if hi <= 0 else (0, max(-lo, hi))
            for lo, hi in spans
        ]
    return merge_spans(spans)


def _fractions(keys: Iterable, d: Optional[int]) -> dict:
    """Each distinct key mapped to the Fraction it stands for under d,
    built once and shared by every part or entry that holds it."""
    return {k: unscaled(k, d) for k in set(keys)}


def _focal(key: tuple, at: dict) -> IntervalUnion:
    """The focal element whose keys are key, its endpoints read from at
    (see _fractions)."""
    if not key:
        return EMPTY
    return IntervalUnion._from_merged((at[lo], at[hi]) for lo, hi in key)


def _cell_of(a: IntervalUnion, b: IntervalUnion, directional: bool) -> IntervalUnion:
    key = _cell(_keys(a, None), _keys(b, None), directional)
    return _focal(key, _fractions((k for span in key for k in span), None))


def cell_directional(a: IntervalUnion, b: IntervalUnion) -> IntervalUnion:
    """{y - x : x in a, y in b}; empty if either side is empty."""
    return _cell_of(a, b, True)


def cell_nondirectional(a: IntervalUnion, b: IntervalUnion) -> IntervalUnion:
    """{|y - x| : x in a, y in b}, each directional difference folded onto
    the nonnegative axis; empty if either side is empty."""
    return _cell_of(a, b, False)


def _cell_mass(
    cells: Iterable[tuple], d: Optional[int], w: Optional[int], directional: bool
) -> MassAssignment:
    """The mass assignment of cells (ka, kb, mass), focal elements given
    as keys under the scale d and masses under the scale w: each cell's
    mass lands on _cell(ka, kb), summed per distinct cell. Entries come
    out in sort_key order, which a positive scale keeps: by keys, the
    empty set last. The result keeps its keys for the sweep."""
    acc: dict = {}
    for ka, kb, mass in cells:
        key = _cell(ka, kb, directional)
        before = acc.get(key)
        # a first mass is stored, not added to 0 (a Fraction sum past the limit)
        acc[key] = mass if before is None else before + mass
    order = sorted(acc, key=lambda key: (not key, key))
    at = _fractions((k for key in order for span in key for k in span), d)
    masses = _fractions(acc.values(), w)
    entries = tuple((_focal(key, at), masses[acc[key]]) for key in order)
    keys = tuple((key, acc[key]) for key in order)
    return MassAssignment._trusted(entries, unscaled(sum(acc.values()), w), d, w, keys)


@dataclass(frozen=True)
class DistanceResult:
    """A distance mass assignment with its membership function and the
    pairing strategy that produced it."""

    mass: MassAssignment
    fuzzy: NumericFuzzySet
    strategy: Strategy

    @classmethod
    def from_mass(cls, m: MassAssignment, strategy: Strategy) -> "DistanceResult":
        return cls(m, fuzzy_from_mass(m), strategy)


def assign_product(
    m_a: MassAssignment, m_b: MassAssignment, directional: bool = False
) -> DistanceResult:
    cells = len(m_a) * len(m_b)
    if cells > MAX_PRODUCT_CELLS:
        raise ValueError(f"product of {cells} cells exceeds the limit {MAX_PRODUCT_CELLS}")
    d = endpoint_scale(m_a.focals() + m_b.focals())
    w = common_scale(m for _, m in m_a.entries + m_b.entries)
    keyed_a = [(_keys(f, d), scaled(m, w)) for f, m in m_a.entries]
    keyed_b = [(_keys(f, d), scaled(m, w)) for f, m in m_b.entries]
    pairs = ((ka, kb, ma * mb) for ka, ma in keyed_a for kb, mb in keyed_b)
    w_pair = None if w is None else w * w  # the scale of a product of two masses
    return DistanceResult.from_mass(_cell_mass(pairs, d, w_pair, directional), Strategy.PRODUCT)


def _paired(
    a: SlicedAssignment, b: SlicedAssignment, directional: bool = False
) -> MassAssignment:
    rows = align_levels(a, b)
    focals = [f for f, _ in a.slices + b.slices]
    d = endpoint_scale(focals)
    w = common_scale(h for _, _, h in rows)
    keys = {id(f): _keys(f, d) for f in focals}  # each focal once, by identity
    cells = ((keys[id(fa)], keys[id(fb)], scaled(h, w)) for fa, fb, h in rows)
    return _cell_mass(cells, d, w, directional)


def assign_diagonal(
    a: SlicedAssignment, b: SlicedAssignment, directional: bool = False
) -> DistanceResult:
    """Pair equal level slices: bottom with bottom, top with top."""
    return DistanceResult.from_mass(_paired(a, b, directional), Strategy.DIAGONAL)


def assign_antidiagonal(
    a: SlicedAssignment, b: SlicedAssignment, directional: bool = False
) -> DistanceResult:
    """Pair opposite level slices: bottom of a with top of b. Implemented
    by reversing b's slice stack before aligning, which both keeps the
    marginals exact for non-uniform level partitions and reduces to
    pairing slice k with slice n+1-k when all slices have equal height."""
    return DistanceResult.from_mass(
        _paired(a, b.reversed_levels(), directional), Strategy.ANTIDIAGONAL
    )


def _normalised(x: DistanceInput, n_slices: Optional[int]) -> Normalised:
    """Slice a shape (n_slices, default DEFAULT_SLICES); pass mass and
    sliced assignments with numeric focal elements through unchanged."""
    if isinstance(x, PiecewiseShape):
        return slice_shape(x, DEFAULT_SLICES if n_slices is None else n_slices)
    if isinstance(x, MassAssignment):
        focals = x.focals()
    elif isinstance(x, SlicedAssignment):
        focals = [f for f, _ in x.slices]
    else:
        raise TypeError(f"cannot take distances over {type(x).__name__}")
    if not all(isinstance(f, IntervalUnion) for f in focals):
        raise TypeError("distance needs numeric focal elements")
    return x


def resolve_strategy(
    a: Normalised, b: Normalised, strategy: Optional[Strategy] = None
) -> Strategy:
    """The strategy actually used: the explicit choice, else DIAGONAL for
    normal inputs and PRODUCT when either carries empty-set mass, since
    level pairing against the empty set discards information that
    independent routing keeps."""
    if strategy is not None:
        return strategy
    return Strategy.DIAGONAL if a.is_normal and b.is_normal else Strategy.PRODUCT


def distance(
    a: DistanceInput,
    b: DistanceInput,
    *,
    directional: bool = False,
    strategy: Optional[Strategy] = None,
    n_slices: Optional[int] = None,
) -> DistanceResult:
    """Distance between two fuzzy sets given as shapes, mass assignments,
    or sliced assignments. Shapes are sliced first (n_slices, default
    DEFAULT_SLICES); the result's strategy field names the pairing used."""
    a, b = _normalised(a, n_slices), _normalised(b, n_slices)
    strategy = resolve_strategy(a, b, strategy)
    if strategy is Strategy.PRODUCT:
        ma, mb = (x.to_mass() if isinstance(x, SlicedAssignment) else x for x in (a, b))
        return assign_product(ma, mb, directional)
    sa, sb = (
        x if isinstance(x, SlicedAssignment) else SlicedAssignment.from_mass(x)
        for x in (a, b)
    )
    if strategy is Strategy.DIAGONAL:
        return assign_diagonal(sa, sb, directional)
    return assign_antidiagonal(sa, sb, directional)
