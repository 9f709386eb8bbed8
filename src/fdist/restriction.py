"""Mass-movement operators, type-1 reachability and mixtures of assignments.

A type-1 restriction moves mass from a focal element to one of its
subsets; a type-2 restriction moves mass from two incomparable focal
elements onto their union and intersection. Reachability under type-1
moves alone is a maximum flow over the superset edges, because containment
is transitive: any chain of moves flattens into a direct routing from
the original donors to the final receivers. The edges are read from the
stored part keys where the two assignments meet (mass.keys_met, which
also refuses labels beside numbers) and tested by mass.keys_contain, and
the flow runs on the mass keys on one integer scale
(mass.masses_under_lcm). linear_combination meets the scales of all its
inputs itself and keys its LP's lookup tables by stored part keys too, so
neither check builds a focal element. Every set is divided by its
total where it is read, so sets that total 1 within the tolerance
compare as their divided forms.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from typing import Optional, Sequence

from . import exactlp
from .intervals import ONE, ZERO, as_fraction, brief, cut, meet_scales
from .mass import Focal, MassAssignment, _unscaler, as_focal, key_order
from .mass import keys_contain, keys_met, keys_under, masses_under_lcm


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
    with one equation per focal element (key_order, label sets first,
    the empty set last). The lookup tables are keyed by stored part keys,
    a numeric set's on the meet scale of the numeric inputs, a label set's
    as they are (labels have no scale); each distinct mass key is unscaled
    to one Fraction."""
    if not basis:
        return None
    sets = (target, *basis)
    d = reduce(meet_scales, (m._scale for m in sets if m.is_numeric), 1)

    def table(m: MassAssignment) -> dict:
        keys = keys_under(m, d)
        at = _unscaler((mass for _, mass in m._keys), m._mass_scale)
        return {key: at(mass) for key, (_, mass) in zip(keys, m._keys)}

    held, *columns = map(table, sets)
    focals = sorted(
        set(held).union(*columns),
        key=lambda key: (not key or isinstance(key[0], tuple), key_order(key)),
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
    trivial flow), so a maximum flow must move all of it onto dst, over
    superset edges read from the stored part keys, its capacities the mass
    keys on one integer scale (masses_under_lcm). Label sets and nonempty
    unions do not mix (TypeError, from keys_met); the empty set alone meets
    either kind."""
    _, outer, inner = keys_met(src, dst)
    edges = [(i, j) for i, ks in enumerate(outer) for j, kd in enumerate(inner)
             if keys_contain(ks, kd)]
    _, supply, demand = masses_under_lcm(src, dst)
    flow = exactlp.min_cost_flow(supply, demand, edges, [()] * len(edges))
    return sum(flow) == sum(supply)
