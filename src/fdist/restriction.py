"""Mass-movement operators and structure checks on assignment matrices.

A type-1 restriction moves mass from a focal element to one of its
subsets; a type-2 restriction moves mass from two incomparable focal
elements onto their union and intersection. Reachability under type-1
moves alone is a maximum flow over the superset edges, because containment
is transitive: any chain of moves flattens into a direct routing from
the original donors to the final receivers.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import exactlp
from .intervals import ONE, ZERO, IntervalUnion, as_fraction, brief, cut
from .mass import Focal, MassAssignment, SlicedAssignment, as_focal, key_order


class InvalidRestrictionError(ValueError):
    """A restriction whose preconditions do not hold."""


class RestrictionKind(Enum):
    TYPE1 = "type1"
    TYPE2 = "type2"


def _require(condition: bool, message: str, *values) -> None:
    """Raise InvalidRestrictionError unless condition holds. Each value
    fills a {} of message once it fails: a number through brief, a focal
    element cut short, so that no message grows with its input."""
    if not condition:
        raise InvalidRestrictionError(message.format(
            *(brief(v) if isinstance(v, Fraction) else cut(str(v)) for v in values)
        ))


def apply_type1(
    m: MassAssignment, donor: Focal, receiver: Focal, x
) -> MassAssignment:
    """Move mass x from donor to one of its subsets."""
    x = as_fraction(x)
    donor, receiver = as_focal(donor), as_focal(receiver)
    held = m.mass_of(donor)
    _require(x > 0, "moved mass must be positive")
    _require(held > 0, "donor {} holds no mass", donor)
    _require(x <= held, "donor {} holds only {}", donor, held)
    _require(donor.issuperset(receiver), "{} does not contain {}", donor, receiver)
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
    k, n = as_focal(k), as_focal(n)
    _require(x > 0, "moved mass must be positive")
    _require(k != n, "the two donors must differ")
    held_k, held_n = m.mass_of(k), m.mass_of(n)
    _require(held_k >= x, "donor {} holds only {}", k, held_k)
    _require(held_n >= x, "donor {} holds only {}", n, held_n)
    _require(
        not k.issuperset(n) and not n.issuperset(k),
        "donors must be incomparable (use a type-1 move for nested ones)",
    )
    union = k.union(n)
    inter = k.intersection(n)
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
    with one equation per focal element (key_order, label sets first)."""
    if not basis:
        return None
    held, *columns = (dict(m.entries) for m in (target, *basis))  # one lookup table each
    focals = sorted(
        set(held).union(*columns),
        key=lambda f: (isinstance(f, IntervalUnion), key_order(f.part_keys())),
    )
    rows = [[column.get(f, ZERO) for column in columns] for f in focals]
    rhs = [held.get(f, ZERO) for f in focals]
    rows.append([ONE] * len(basis))
    rhs.append(ONE)
    solution = exactlp.feasible(rows, rhs)
    return None if solution is None else tuple(solution)


def reachable_type1(src: MassAssignment, dst: MassAssignment) -> bool:
    """Whether some sequence of type-1 moves turns src into dst: mass may
    flow from a focal element only to its subsets (staying put is the
    trivial flow), so a maximum flow must move all of it onto dst."""
    if src.total != dst.total:
        return False
    edges = [
        (i, j)
        for i, (fs, _) in enumerate(src.entries)
        for j, (fd, _) in enumerate(dst.entries)
        if fs.issuperset(fd)
    ]
    flow = exactlp.min_cost_flow(
        [m for _, m in src.entries], [m for _, m in dst.entries], edges, [()] * len(edges)
    )
    return sum(x for x in flow if x) == src.total


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
        return cls.build([f for f, _ in a.slices], [f for f, _ in b.slices], cell)

    def flat(self):
        for i, row in enumerate(self.cells):
            for j, value in enumerate(row):
                yield (i, j), value


def theorem1_check(matrix: CellMatrix) -> bool:
    """True when every pair of cells is comparable under containment."""
    flat = list(matrix.flat())
    for idx, (_, x) in enumerate(flat):
        for _, y in flat[idx + 1 :]:
            if not (x.issuperset(y) or y.issuperset(x)):
                return False
    return True


def theorem2_witness(matrix: CellMatrix) -> Optional[tuple]:
    """Coordinates of two cells that overlap with neither containing the
    other, if such a pair exists."""
    flat = list(matrix.flat())
    for idx, (pos_x, x) in enumerate(flat):
        for pos_y, y in flat[idx + 1 :]:
            if x.intersects(y) and not x.issuperset(y) and not y.issuperset(x):
                return (pos_x, pos_y)
    return None
