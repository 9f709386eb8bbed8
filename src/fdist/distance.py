"""Fuzzy distance between two fuzzy sets, itself a fuzzy set.

The distance between two focal elements is the set of differences
between their points: directional keeps the sign of b - a, the plain
distance takes absolute values. Pairing the two mass assignments' focal
elements is a choice of joint distribution over cells:

* PRODUCT treats them as independent,
* DIAGONAL pairs level slices bottom-up over their shared level ranges,
* ANTIDIAGONAL pairs the lowest slice of one with the highest of the
  other; for uniform slicings this is slice k against slice n+1-k.

Each input is normalised once: mass.slice_shape slices a shape, resolving
and bounding n_slices, and a mass or sliced assignment passes through when
its is_numeric, decided in mass, holds. The strategy is resolved from
those inputs and reported in the result. Diagonal pairings need a level
ordering, so they stack a mass assignment's focal elements by size;
distances between cells of the empty set stay on the empty set.

Every strategy hands its rows of focal elements and mass keys to one
kernel, _cell_mass, which works in the integer key space of
intervals.common_scale: each input focal element becomes its part keys
once (IntervalUnion.part_keys). A cell's bounds are differences of those
keys, folded onto the nonnegative axis unless directional and merged by
intervals.merge_spans, and its mass, an integer under the masses' own
common scale, is summed into one dict keyed by the cell's keys. The
paired strategies take their heights as keys straight from align_levels.
MassAssignment._from_keys turns that dict into the result, which keeps
its keys and scales, so its membership and density sweep them without
scaling any endpoint again (see mass). Past MAX_SCALE_BITS a scale is
None and the keys are the Fractions themselves, through the same code.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence, Union

from .intervals import IntervalUnion, common_scale, merge_spans, scaled
from .mass import (
    MAX_SLICES,
    MassAssignment,
    NumericFuzzySet,
    PiecewiseShape,
    SlicedAssignment,
    align_levels,
    endpoint_scale,
    focals_from_keys,
    fuzzy_from_mass,
    slice_shape,
)

MAX_PRODUCT_CELLS = (MAX_SLICES + 1) ** 2  # a subnormal stack adds an empty slice

DistanceInput = Union[PiecewiseShape, MassAssignment, SlicedAssignment]
Normalised = Union[MassAssignment, SlicedAssignment]


class Strategy(Enum):
    PRODUCT = "product"
    DIAGONAL = "diagonal"
    ANTIDIAGONAL = "antidiagonal"


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


def _cell_of(a: IntervalUnion, b: IntervalUnion, directional: bool) -> IntervalUnion:
    return focals_from_keys([_cell(a.part_keys(), b.part_keys(), directional)], None)[0]


def cell_directional(a: IntervalUnion, b: IntervalUnion) -> IntervalUnion:
    """{y - x : x in a, y in b}; empty if either side is empty."""
    return _cell_of(a, b, True)


def cell_nondirectional(a: IntervalUnion, b: IntervalUnion) -> IntervalUnion:
    """{|y - x| : x in a, y in b}, each directional difference folded onto
    the nonnegative axis; empty if either side is empty."""
    return _cell_of(a, b, False)


def _cell_mass(
    rows: Iterable[tuple], focals: Sequence, w: Optional[int], directional: bool
) -> MassAssignment:
    """The mass assignment of rows (focal_a, focal_b, mass key under w),
    each focal element one of focals, keyed once by identity: each row's
    mass lands on the cell between them, summed per distinct cell."""
    d = endpoint_scale(focals)
    keys = {id(f): f.part_keys(d) for f in focals}
    acc: dict = {}
    for fa, fb, mass in rows:
        key = _cell(keys[id(fa)], keys[id(fb)], directional)
        before = acc.get(key)
        # a first mass is stored, not added to 0 (a Fraction sum past the limit)
        acc[key] = mass if before is None else before + mass
    return MassAssignment._from_keys(acc, d, w)


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
    w = common_scale(m for _, m in m_a.entries + m_b.entries)
    a = [(f, scaled(m, w)) for f, m in m_a.entries]
    b = [(f, scaled(m, w)) for f, m in m_b.entries]
    rows = ((fa, fb, ma * mb) for fa, ma in a for fb, mb in b)
    w_pair = None if w is None else w * w  # the scale of a product of two masses
    m = _cell_mass(rows, m_a.focals() + m_b.focals(), w_pair, directional)
    return DistanceResult.from_mass(m, Strategy.PRODUCT)


def _paired(
    a: SlicedAssignment, b: SlicedAssignment, directional: bool = False
) -> MassAssignment:
    rows, w = align_levels(a, b)
    return _cell_mass(rows, [f for f, _ in a.slices + b.slices], w, directional)


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
    """Slice a shape at n_slices (see slice_shape); pass mass and sliced
    assignments with numeric focal elements through unchanged."""
    if isinstance(x, PiecewiseShape):
        return slice_shape(x, n_slices)
    if not isinstance(x, (MassAssignment, SlicedAssignment)):
        raise TypeError(f"cannot take distances over {type(x).__name__}")
    if not x.is_numeric:
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
    or sliced assignments. Shapes are sliced first (n_slices, see
    slice_shape); the result's strategy field names the pairing used."""
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
