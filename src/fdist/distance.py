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
"""

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Union

from .intervals import Interval, IntervalUnion
from .mass import (
    MassAssignment,
    NumericFuzzySet,
    PiecewiseShape,
    SlicedAssignment,
    align_levels,
    fuzzy_from_mass,
    slice_shape,
)

DEFAULT_SLICES = 100
MAX_SLICES = 1000  # work limits: a subnormal stack adds an empty slice
MAX_PRODUCT_CELLS = (MAX_SLICES + 1) ** 2

CellOp = Callable[[IntervalUnion, IntervalUnion], IntervalUnion]
DistanceInput = Union[PiecewiseShape, MassAssignment, SlicedAssignment]
Normalised = Union[MassAssignment, SlicedAssignment]


class Strategy(Enum):
    PRODUCT = "product"
    DIAGONAL = "diagonal"
    ANTIDIAGONAL = "antidiagonal"


def _differences(a: IntervalUnion, b: IntervalUnion):
    """(lo, hi) bounds of {y - x} for each part x of a and part y of b;
    none when either side is empty."""
    return ((q.lo - p.hi, q.hi - p.lo) for p in a.parts for q in b.parts)


def cell_directional(a: IntervalUnion, b: IntervalUnion) -> IntervalUnion:
    """{y - x : x in a, y in b}; empty if either side is empty."""
    return IntervalUnion(tuple(Interval(lo, hi) for lo, hi in _differences(a, b)))


def cell_nondirectional(a: IntervalUnion, b: IntervalUnion) -> IntervalUnion:
    """{|y - x| : x in a, y in b}, each directional difference folded onto
    the nonnegative axis; empty if either side is empty."""
    folded = []
    for lo, hi in _differences(a, b):
        if lo >= 0:
            folded.append(Interval(lo, hi))
        elif hi <= 0:
            folded.append(Interval(-hi, -lo))
        else:
            folded.append(Interval(0, max(-lo, hi)))
    return IntervalUnion(tuple(folded))


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
    m_a: MassAssignment, m_b: MassAssignment, cell: CellOp = cell_nondirectional
) -> DistanceResult:
    cells = len(m_a) * len(m_b)
    if cells > MAX_PRODUCT_CELLS:
        raise ValueError(f"product of {cells} cells exceeds the limit {MAX_PRODUCT_CELLS}")
    entries = [
        (cell(fa, fb), ma * mb)
        for fa, ma in m_a.entries
        for fb, mb in m_b.entries
    ]
    return DistanceResult.from_mass(MassAssignment(entries), Strategy.PRODUCT)


def _paired(a: SlicedAssignment, b: SlicedAssignment, cell: CellOp) -> MassAssignment:
    return MassAssignment((cell(fa, fb), h) for fa, fb, h in align_levels(a, b))


def assign_diagonal(
    a: SlicedAssignment, b: SlicedAssignment, cell: CellOp = cell_nondirectional
) -> DistanceResult:
    """Pair equal level slices: bottom with bottom, top with top."""
    return DistanceResult.from_mass(_paired(a, b, cell), Strategy.DIAGONAL)


def assign_antidiagonal(
    a: SlicedAssignment, b: SlicedAssignment, cell: CellOp = cell_nondirectional
) -> DistanceResult:
    """Pair opposite level slices: bottom of a with top of b. Implemented
    by reversing b's slice stack before aligning, which both keeps the
    marginals exact for non-uniform level partitions and reduces to
    pairing slice k with slice n+1-k when all slices have equal height."""
    return DistanceResult.from_mass(
        _paired(a, b.reversed_levels(), cell), Strategy.ANTIDIAGONAL
    )


def _normalised(x: DistanceInput, n_slices: Optional[int]) -> Normalised:
    """Slice a shape (n_slices, default DEFAULT_SLICES); pass mass and
    sliced assignments with numeric focal elements through unchanged."""
    if isinstance(x, PiecewiseShape):
        return slice_shape(x, DEFAULT_SLICES if n_slices is None else n_slices)
    if isinstance(x, MassAssignment):
        focals = x.focals()
    elif isinstance(x, SlicedAssignment):
        focals = [s.focal for s in x.slices]
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
    cell = cell_directional if directional else cell_nondirectional
    if strategy is Strategy.PRODUCT:
        ma, mb = (x.to_mass() if isinstance(x, SlicedAssignment) else x for x in (a, b))
        return assign_product(ma, mb, cell)
    sa, sb = (
        x if isinstance(x, SlicedAssignment) else SlicedAssignment.from_mass(x)
        for x in (a, b)
    )
    if strategy is Strategy.DIAGONAL:
        return assign_diagonal(sa, sb, cell)
    return assign_antidiagonal(sa, sb, cell)
