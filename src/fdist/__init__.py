"""Fuzzy set operations through mass assignments, with exact arithmetic.

A fuzzy set's membership levels induce a probability mass over its level
sets (focal elements); operating on those masses gives fuzzy-valued
distances, truth assignments for match queries, restriction (mass
movement) operators, and defuzzification summaries. All computation uses
rational arithmetic, so worked results are exact.
"""

from .distance import (
    DistanceResult,
    Strategy,
    assign_antidiagonal,
    assign_diagonal,
    assign_product,
    distance,
    resolve_strategy,
)
from .intervals import (
    DEFAULT_TOLERANCE,
    Interval,
    IntervalUnion,
    SurrogatePairError,
    as_fraction,
    format_fraction,
    iu,
)
from .mass import (
    DEFAULT_SLICES,
    DegenerateSupportError,
    Density,
    DiscreteFuzzySet,
    Focal,
    LabelSet,
    MassAssignment,
    NumericFuzzySet,
    PiecewiseShape,
    SlicedAssignment,
    Step,
    ZeroAreaError,
    align_levels,
    as_focal,
    centre_of_gravity,
    combine,
    fuzzy_from_mass,
    least_prejudiced,
    mass_from_discrete,
    max_likelihood_interval,
    slice_shape,
)
from .restriction import (
    InvalidRestrictionError,
    Restriction,
    RestrictionKind,
    apply_type1,
    apply_type2,
    linear_combination,
    reachable_type1,
)
from .specfile import SpecError, SpecSet, load, parse_document, parse_text
from .unification import (
    TruthAssignment,
    TruthLabel,
    truth_cell,
    unify_maximal,
    unify_product,
)

__all__ = [
    "DEFAULT_SLICES",
    "DEFAULT_TOLERANCE",
    "DegenerateSupportError",
    "Density",
    "DiscreteFuzzySet",
    "DistanceResult",
    "Focal",
    "Interval",
    "IntervalUnion",
    "InvalidRestrictionError",
    "LabelSet",
    "MassAssignment",
    "NumericFuzzySet",
    "PiecewiseShape",
    "Restriction",
    "RestrictionKind",
    "SlicedAssignment",
    "SpecError",
    "SpecSet",
    "Step",
    "SurrogatePairError",
    "Strategy",
    "TruthAssignment",
    "TruthLabel",
    "ZeroAreaError",
    "align_levels",
    "apply_type1",
    "apply_type2",
    "as_focal",
    "as_fraction",
    "assign_antidiagonal",
    "assign_diagonal",
    "assign_product",
    "centre_of_gravity",
    "combine",
    "distance",
    "format_fraction",
    "fuzzy_from_mass",
    "iu",
    "least_prejudiced",
    "linear_combination",
    "load",
    "mass_from_discrete",
    "max_likelihood_interval",
    "parse_document",
    "parse_text",
    "reachable_type1",
    "resolve_strategy",
    "slice_shape",
    "truth_cell",
    "unify_maximal",
    "unify_product",
]

__version__ = "0.1.0"
