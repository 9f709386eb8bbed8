"""Semantic unification: how well a claim matches fuzzy evidence.

Each pair of focal elements (one from the claim A, one from the evidence
G) supports a truth label. Routing the two assignments' masses through
the label table gives a truth assignment. Product routing treats the
assignments as independent; maximal routing finds, by one min-cost flow,
the lexicographically most informative joint distribution over the table.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

from . import exactlp
from .intervals import DEFAULT_TOLERANCE, ZERO, as_fraction, brief, format_fraction
from .mass import Focal, MassAssignment, as_focal


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
    overlap leaves both possibilities open (BOTH)."""
    a, g = as_focal(a), as_focal(g)
    if g.is_empty:
        return TruthLabel.TRUE if a.is_empty else TruthLabel.UNKNOWN
    if a.is_empty:
        return TruthLabel.BOTH
    if a.issuperset(g):
        return TruthLabel.TRUE
    if not a.intersects(g):
        return TruthLabel.FALSE
    return TruthLabel.BOTH


@dataclass(frozen=True, init=False, repr=False, slots=True)
class TruthAssignment:
    """Mass over the four truth labels, summing to 1, kept as a tuple in
    TruthLabel order."""

    _masses: tuple

    def __init__(self, masses):
        acc = {label: ZERO for label in TruthLabel}
        for label, mass in dict(masses).items():
            acc[TruthLabel(label)] = as_fraction(mass)
        if any(m < 0 for m in acc.values()):
            raise ValueError("negative truth mass")
        total = sum(acc.values(), ZERO)
        if abs(total - 1) > DEFAULT_TOLERANCE:
            raise ValueError(f"truth masses sum to {brief(total)}, expected 1")
        object.__setattr__(self, "_masses", tuple(acc.values()))

    @property
    def masses(self) -> Mapping[TruthLabel, Fraction]:
        """Read-only mapping from every TruthLabel, in TruthLabel order, to
        its mass."""
        return MappingProxyType(dict(zip(TruthLabel, self._masses)))

    def __getitem__(self, label: TruthLabel) -> Fraction:
        return self.masses[TruthLabel(label)]

    def as_tuple(self, order: Sequence[TruthLabel] = DEFAULT_ORDER) -> tuple:
        masses = self.masses
        return tuple(masses[l] for l in order)

    def __repr__(self):
        body = ", ".join(
            f"{label}:{format_fraction(mass)}"
            for label, mass in self.masses.items()
            if mass
        )
        return f"TruthAssignment({body or '0'})"


def unify_product(m_a: MassAssignment, m_g: MassAssignment) -> TruthAssignment:
    """Independent routing: each cell gets the product of its marginals."""
    acc = {label: ZERO for label in TruthLabel}
    for fa, ma in m_a.entries:
        for fg, mg in m_g.entries:
            acc[truth_cell(fa, fg)] += ma * mg
    return TruthAssignment(acc)


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
    order = tuple(order)
    if sorted(order, key=lambda l: l.value) != sorted(TruthLabel, key=lambda l: l.value):
        raise ValueError("order must list each truth label exactly once")

    # scale to exact marginals so the transportation problem is balanced
    supply = [m / m_a.total for _, m in m_a.entries]
    demand = [m / m_g.total for _, m in m_g.entries]
    cells = [(i, j) for i in range(len(supply)) for j in range(len(demand))]
    labels = [truth_cell(fa, fg) for fa, _ in m_a.entries for fg, _ in m_g.entries]
    costs = [tuple(-(label == o) for o in order) for label in labels]
    totals = dict.fromkeys(TruthLabel, ZERO)
    for label, x in zip(labels, exactlp.min_cost_flow(supply, demand, cells, costs)):
        if x:
            totals[label] += x
    return TruthAssignment(totals)
