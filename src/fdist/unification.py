"""Semantic unification: how well a claim matches fuzzy evidence.

Each pair of focal elements (one from the claim A, one from the evidence
G) supports a truth label. Routing the two assignments' masses through
the label table gives a truth assignment. Product routing treats the
assignments as independent; maximal routing finds, by one min-cost flow,
the lexicographically most informative joint distribution over the table.

The label table (_labels) is decided once, on the two assignments' stored
part keys as mass.keys_met relates them, which also refuses label sets
beside nonempty unions. A union's containment is intervals.covers and its
overlap intervals.meets; a label set's are set comparisons, each focal
element's labels made one set for the whole table. No focal element is
built, and truth_cell is the table of two one-entry assignments. Both
routings total the table with mass.sum_by_key, on integer mass keys
divided by their scale once per label: product routing's cell masses are
keys from mass.product_rows, as in the product distance, and maximal
routing's flow runs on the mass keys of mass.masses_under_lcm. Every set
is divided by its total where it is read, so the label totals are the
truth masses.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

from . import exactlp
from .intervals import ZERO, as_fraction, brief, covers, echo, format_fraction, meets, unscaled
from .mass import Focal, MassAssignment, keys_met, masses_under_lcm, product_rows, sum_by_key


class TruthLabel(Enum):
    TRUE = "t"
    FALSE = "f"
    BOTH = "ft"
    UNKNOWN = "empty"

    def __str__(self):
        return {"t": "{t}", "f": "{f}", "ft": "{f,t}", "empty": "[]"}[self.value]


DEFAULT_ORDER = (TruthLabel.BOTH, TruthLabel.TRUE, TruthLabel.FALSE, TruthLabel.UNKNOWN)


def truth_cell(a: Focal, g: Focal) -> TruthLabel:
    """Label for claim focal a against evidence focal g.

    Empty evidence tells us nothing about a non-empty claim (UNKNOWN)
    and trivially confirms an empty one (TRUE). Otherwise: containment
    of the evidence proves the claim, disjointness refutes it, partial
    overlap leaves both possibilities open (BOTH). The rule is read on
    part keys: this is the label table (_labels) of two assignments of one
    entry each, so a label set against a nonempty union raises
    TypeError(MIXED_KINDS)."""
    return _labels(MassAssignment([(a, 1)]), MassAssignment([(g, 1)]))[0]


@dataclass(frozen=True, init=False, repr=False, slots=True)
class TruthAssignment:
    """Mass over the four truth labels, summing to exactly 1 (both routings
    route masses that do), kept as a tuple in TruthLabel order. masses is
    a mapping or (label, mass) pairs, read as given; a label given twice,
    as a TruthLabel and as its value, say, or in two pairs, is refused."""

    _masses: tuple

    def __init__(self, masses):
        given: dict = {}
        for label, mass in (masses.items() if isinstance(masses, Mapping) else masses):
            label = TruthLabel(label)
            if label in given:
                raise ValueError(f"truth label {echo(label.value)} given twice")
            given[label] = as_fraction(mass)
        acc = tuple(given.get(label, ZERO) for label in TruthLabel)
        if any(m < 0 for m in acc):
            raise ValueError("negative truth mass")
        total = sum(acc, ZERO)
        if total != 1:
            raise ValueError(f"truth masses sum to {brief(total)}, expected 1")
        object.__setattr__(self, "_masses", acc)

    @property
    def masses(self) -> Mapping[TruthLabel, Fraction]:
        """Read-only mapping from every TruthLabel, in TruthLabel order, to
        its mass."""
        return MappingProxyType(dict(zip(TruthLabel, self._masses)))

    def __getitem__(self, label: TruthLabel) -> Fraction:
        return self.masses[TruthLabel(label)]

    def as_tuple(self, order: Sequence[TruthLabel] = DEFAULT_ORDER) -> tuple:
        return tuple(self[l] for l in order)

    def __repr__(self):
        body = ", ".join(
            f"{label}:{format_fraction(mass)}"
            for label, mass in self.masses.items()
            if mass
        )
        return f"TruthAssignment({body or '0'})"


def _label(ka, kg) -> TruthLabel:
    """truth_cell's rule on the part keys ka of a claim's focal element and
    kg of the evidence's, of one kind and scale: a union's (lo, hi) spans,
    or a label set's labels as a set."""
    if not (ka and kg):
        return TruthLabel.BOTH if kg else TruthLabel.UNKNOWN if ka else TruthLabel.TRUE
    if covers(ka, kg) if isinstance(ka, tuple) else ka >= kg:
        return TruthLabel.TRUE
    if meets(ka, kg) if isinstance(ka, tuple) else not ka.isdisjoint(kg):
        return TruthLabel.BOTH
    return TruthLabel.FALSE


def _labels(m_a: MassAssignment, m_g: MassAssignment) -> list:
    """The label table, claim-major: each cell's _label, on the stored part
    keys where the two assignments meet (keys_met). Label keys become one
    set per focal element, so no cell builds one."""
    _, keys_a, keys_g = keys_met(m_a, m_g)
    if not (m_a.is_numeric and m_g.is_numeric):
        keys_a, keys_g = [set(k) for k in keys_a], [set(k) for k in keys_g]
    return [_label(ka, kg) for ka in keys_a for kg in keys_g]


def unify_product(m_a: MassAssignment, m_g: MassAssignment) -> TruthAssignment:
    """Independent routing: each cell gets the product of its marginals,
    summed per label as mass keys (see product_rows)."""
    rows, scale = product_rows(m_a, m_g)
    totals = sum_by_key(zip(_labels(m_a, m_g), (mass for _, _, mass in rows)))
    return TruthAssignment({label: unscaled(t, scale) for label, t in totals.items()})


def unify_maximal(
    m_a: MassAssignment,
    m_g: MassAssignment,
    order: Sequence[TruthLabel] = DEFAULT_ORDER,
) -> TruthAssignment:
    """Most-informative routing: over all joint mass tables with the two
    assignments as marginals, lexicographically maximize the label totals
    in the given preference order (BOTH, then TRUE, then FALSE, then
    UNKNOWN by default). Solved exactly; only label totals are returned,
    since optimal tables need not be unique."""
    order = tuple(map(TruthLabel, order))
    if sorted(order, key=lambda l: l.value) != sorted(TruthLabel, key=lambda l: l.value):
        raise ValueError("order must list each truth label exactly once")

    # both marginals total exactly 1, so the transportation problem is balanced
    scale, supply, demand = masses_under_lcm(m_a, m_g)
    cells = [(i, j) for i in range(len(supply)) for j in range(len(demand))]
    labels = _labels(m_a, m_g)
    costs = [tuple(-(label == o) for o in order) for label in labels]
    flow = exactlp.min_cost_flow(supply, demand, cells, costs)
    totals = sum_by_key(cell for cell in zip(labels, flow) if cell[1])
    return TruthAssignment({label: Fraction(t, scale) for label, t in totals.items()})
