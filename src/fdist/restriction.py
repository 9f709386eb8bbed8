"""Mass-movement operators and structure checks on assignment matrices.

A type-1 restriction moves mass from a focal element to one of its
subsets; a type-2 restriction moves mass from two incomparable focal
elements onto their union and intersection. Reachability under type-1
moves alone is a transportation-feasibility question because containment
is transitive: any chain of moves flattens into a direct routing from
the original donors to the final receivers.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import exactlp
from .intervals import ONE, IntervalUnion, as_fraction
from .mass import (
    Focal,
    MassAssignment,
    SlicedAssignment,
    focal_intersection,
    focal_intersects,
    focal_issuperset,
    focal_key,
    focal_union,
    format_focal,
)


class InvalidRestrictionError(ValueError):
    """A restriction whose preconditions do not hold."""


class RestrictionKind(Enum):
    TYPE1 = "type1"
    TYPE2 = "type2"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidRestrictionError(message)


def apply_type1(
    m: MassAssignment, donor: Focal, receiver: Focal, x
) -> MassAssignment:
    """Move mass x from donor to one of its subsets."""
    x = as_fraction(x)
    held = m.mass_of(donor)
    _require(x > 0, "moved mass must be positive")
    _require(held > 0, f"donor {format_focal(donor)} holds no mass")
    _require(x <= held, f"donor {format_focal(donor)} holds only {held}")
    _require(
        focal_issuperset(donor, receiver),
        f"{format_focal(donor)} does not contain {format_focal(receiver)}",
    )
    _require(donor != receiver, "donor and receiver must differ")
    entries = [(f, mass) for f, mass in m.entries if f != donor]
    if held != x:
        entries.append((donor, held - x))
    entries.append((receiver, x))
    return MassAssignment(entries)


def apply_type2(m: MassAssignment, k: Focal, n: Focal, x) -> MassAssignment:
    """Move mass x from each of two incomparable focal elements onto
    their union and their intersection (which may be empty)."""
    x = as_fraction(x)
    _require(x > 0, "moved mass must be positive")
    _require(k != n, "the two donors must differ")
    held_k, held_n = m.mass_of(k), m.mass_of(n)
    _require(held_k >= x, f"donor {format_focal(k)} holds only {held_k}")
    _require(held_n >= x, f"donor {format_focal(n)} holds only {held_n}")
    _require(
        not focal_issuperset(k, n) and not focal_issuperset(n, k),
        "donors must be incomparable (use a type-1 move for nested ones)",
    )
    union = focal_union(k, n)
    inter = focal_intersection(k, n)
    entries = [(f, mass) for f, mass in m.entries if f not in (k, n)]
    if held_k != x:
        entries.append((k, held_k - x))
    if held_n != x:
        entries.append((n, held_n - x))
    entries.extend([(union, x), (inter, x)])
    return MassAssignment(entries)


@dataclass(frozen=True)
class Restriction:
    """A recorded mass move: donors a (and b for type 2), amount x."""

    kind: RestrictionKind
    a: Focal
    b: Focal
    x: Fraction

    def apply(self, m: MassAssignment) -> MassAssignment:
        if self.kind is RestrictionKind.TYPE1:
            return apply_type1(m, self.a, self.b, self.x)
        return apply_type2(m, self.a, self.b, self.x)


def linear_combination(
    target: MassAssignment, basis: Sequence[MassAssignment]
) -> Optional[tuple]:
    """Nonnegative coefficients summing to 1 with sum(c_r * basis_r) ==
    target, if any exist. Solved exactly as a linear feasibility problem
    with one equation per focal element."""
    if not basis:
        return None
    focals = set(f for f, _ in target.entries)
    for m in basis:
        focals.update(f for f, _ in m.entries)
    focals = sorted(focals, key=focal_key)
    rows = [[m.mass_of(f) for m in basis] for f in focals]
    rhs = [target.mass_of(f) for f in focals]
    rows.append([ONE] * len(basis))
    rhs.append(ONE)
    solution = exactlp.feasible(rows, rhs, nvars=len(basis))
    return None if solution is None else tuple(solution)


def reachable_type1(src: MassAssignment, dst: MassAssignment) -> bool:
    """Whether some sequence of type-1 moves turns src into dst. Mass
    may flow from a focal element only to its subsets (staying put is
    the trivial flow), so this is a transportation feasibility check."""
    edges = [
        (i, j)
        for i, (fs, _) in enumerate(src.entries)
        for j, (fd, _) in enumerate(dst.entries)
        if focal_issuperset(fs, fd)
    ]
    rows, rhs = exactlp.transportation(
        edges, [m for _, m in src.entries], [m for _, m in dst.entries]
    )
    return exactlp.feasible(rows, rhs, nvars=len(edges)) is not None


# ---------------------------------------------------------------------------
# assignment-matrix structure checks

@dataclass(frozen=True)
class CellMatrix:
    """Every pairwise cell of a distance operator over two focal lists."""

    rows: tuple
    cols: tuple
    cells: tuple

    @classmethod
    def build(
        cls,
        rows: Sequence[Focal],
        cols: Sequence[Focal],
        cell: Callable[[IntervalUnion, IntervalUnion], IntervalUnion],
    ) -> "CellMatrix":
        rows = tuple(rows)
        cols = tuple(cols)
        cells = tuple(tuple(cell(r, c) for c in cols) for r in rows)
        return cls(rows, cols, cells)

    @classmethod
    def from_sliced(
        cls,
        a: SlicedAssignment,
        b: SlicedAssignment,
        cell: Callable[[IntervalUnion, IntervalUnion], IntervalUnion],
    ) -> "CellMatrix":
        return cls.build(
            [s.focal for s in a.slices], [s.focal for s in b.slices], cell
        )

    def flat(self):
        for i, row in enumerate(self.cells):
            for j, value in enumerate(row):
                yield (i, j), value


def theorem1_check(matrix: CellMatrix) -> bool:
    """True when every pair of cells is comparable under containment."""
    flat = list(matrix.flat())
    for idx, (_, x) in enumerate(flat):
        for _, y in flat[idx + 1 :]:
            if not (focal_issuperset(x, y) or focal_issuperset(y, x)):
                return False
    return True


def theorem2_witness(matrix: CellMatrix) -> Optional[tuple]:
    """Coordinates of two cells that overlap with neither containing the
    other, if such a pair exists."""
    flat = list(matrix.flat())
    for idx, (pos_x, x) in enumerate(flat):
        for pos_y, y in flat[idx + 1 :]:
            if (
                focal_intersects(x, y)
                and not focal_issuperset(x, y)
                and not focal_issuperset(y, x)
            ):
                return (pos_x, pos_y)
    return None
