"""Command-line front end.

Every command reads a JSON document of named fuzzy sets (see specfile),
computes with exact rational arithmetic, and prints a JSON result
document on stdout. Emitted mass assignments are themselves valid set
documents, so results can be fed back in as inputs. ``distance
--plot-step S`` prints ``x,mu`` CSV rows over the result's support
instead of the JSON document.

Set ``FDIST_TOLERANCE`` to override the mass-sum validation tolerance
(default 1e-9); values accept decimal or fraction syntax.

Exit status: 0 on success, 2 on any input or computation error, or
when stdout cannot be written (message on stderr).

The argument parser is built once, when this module is imported
(``PARSER``); parsing leaves it unchanged, so ``main()`` is safe to call
repeatedly in one process.
"""

import argparse
import os
import sys
from fractions import Fraction
from typing import Optional

from . import specfile
from .distance import Normalised, Strategy, distance
from .intervals import DEFAULT_TOLERANCE, as_fraction, cut, echo, format_fraction
from .mass import (
    MassAssignment,
    NumericFuzzySet,
    SlicedAssignment,
    centre_of_gravity,
    fuzzy_from_mass,
    least_prejudiced,  # unused here, but traced at this name by perfbench/spans.py
    mass_from_discrete,
    max_likelihood_interval,
    slice_shape,
)
from .restriction import linear_combination, reachable_type1
from .specfile import SpecSet
from .unification import unify_maximal, unify_product

TOLERANCE_ENV = "FDIST_TOLERANCE"
MAX_PLOT_ROWS = 100000
NAMES_CHARS = 160  # the list of set names in a message is cut to this


def _env_tolerance() -> Fraction:
    raw = os.environ.get(TOLERANCE_ENV)
    if raw is None:
        return DEFAULT_TOLERANCE
    try:
        tolerance = as_fraction(raw)
    except (TypeError, ValueError):
        raise ValueError(f"{TOLERANCE_ENV} must be a number, got {echo(raw)}") from None
    if tolerance < 0:
        raise ValueError(f"{TOLERANCE_ENV} must be nonnegative, got {echo(raw)}")
    return tolerance


def _resolve(sets: dict, name: str) -> SpecSet:
    try:
        return sets[name]
    except KeyError:
        known = cut(", ".join(sorted(sets)), NAMES_CHARS) or "none"
        raise ValueError(f"unknown set {echo(name)} (document defines: {known})") from None


def _numeric(
    s: SpecSet, slices: Optional[int] = None, need: str = "a numeric set is required"
) -> Normalised:
    """A points set sliced once (at --slices, else the set's own count, else
    the default), or a mass set with numeric focal elements as is."""
    if s.kind == "points":
        return slice_shape(s.value, slices or s.slices)
    if s.kind == "discrete":
        raise ValueError(f"set {echo(s.name)} is discrete; {need}")
    if not s.value.is_numeric:
        raise ValueError(f"set {echo(s.name)} has label focal elements; {need}")
    return s.value


def _plot(fuzzy: NumericFuzzySet, step: Fraction) -> str:
    lines = ["x,mu"]
    if not fuzzy.is_empty:
        hull = fuzzy.support_hull
        if (hull.hi - hull.lo) // step >= MAX_PLOT_ROWS:
            raise ValueError(
                f"--plot-step {format_fraction(step)} gives more than {MAX_PLOT_ROWS} rows"
            )
        x = hull.lo
        while x <= hull.hi:
            lines.append(f"{format_fraction(x)},{format_fraction(fuzzy.mu(x))}")
            x += step
    return "\n".join(lines) + "\n"


def cmd_mass(args, sets: dict) -> str:
    s = _resolve(sets, args.name)
    if s.kind == "discrete":
        m = mass_from_discrete(s.value)
    else:
        m = _numeric(s, args.slices).to_mass() if s.kind == "points" else s.value
    text = specfile.formatter()
    doc = {
        "command": "mass",
        "set": s.name,
        "mass": specfile.mass_frame(m, s.name, text),
    }
    if m.is_numeric:
        doc["fuzzy"] = specfile.fuzzy_rows(fuzzy_from_mass(m), text)
    return specfile.render(doc)


def cmd_distance(args, sets: dict) -> str:
    sa, sb = _resolve(sets, args.a), _resolve(sets, args.b)
    need = "distance needs numeric sets"
    a, b = _numeric(sa, args.slices, need), _numeric(sb, args.slices, need)
    strategy = Strategy(args.strategy) if args.strategy else None
    result = distance(a, b, directional=args.directional, strategy=strategy)
    if args.plot_step is not None:
        step = as_fraction(args.plot_step)
        if step <= 0:
            raise ValueError(f"--plot-step must be positive, got {echo(args.plot_step)}")
        return _plot(result.fuzzy, step)
    text = specfile.formatter()
    doc = {
        "command": "distance",
        "a": sa.name,
        "b": sb.name,
        "directional": bool(args.directional),
        "strategy": result.strategy.value,
        "mass": specfile.mass_frame(result.mass, f"D({sa.name},{sb.name})", text),
        "fuzzy": specfile.fuzzy_rows(result.fuzzy, text),
    }
    return specfile.render(doc)


def cmd_unify(args, sets: dict) -> str:
    sa, sg = _resolve(sets, args.a), _resolve(sets, args.g)
    for s in (sa, sg):
        if s.kind != "discrete":
            raise ValueError(
                f"set {echo(s.name)} must be discrete for unification, got kind {s.kind!r}"
            )
    m_a, m_g = mass_from_discrete(sa.value), mass_from_discrete(sg.value)
    doc = {"command": "unify", "claim": sa.name, "evidence": sg.name}
    if args.routing in ("product", "both"):
        doc["product"] = specfile.truth_to_doc(unify_product(m_a, m_g))
    if args.routing in ("maximal", "both"):
        doc["maximal"] = specfile.truth_to_doc(unify_maximal(m_a, m_g))
    return specfile.render(doc)


def cmd_defuzz(args, sets: dict) -> str:
    s = _resolve(sets, args.name)
    m = _numeric(s)
    m = m.to_mass() if isinstance(m, SlicedAssignment) else m
    doc = {
        "command": "defuzz",
        "set": s.name,
        "max_likelihood": specfile.focal_to_doc(max_likelihood_interval(m)),
        "centre_of_gravity": format_fraction(centre_of_gravity(fuzzy_from_mass(m))),
        "unassigned": format_fraction(m.empty_mass),
    }
    return specfile.render(doc)


def cmd_restrict_check(args, sets: dict) -> str:
    def mass_kind(s: SpecSet) -> MassAssignment:
        if s.kind != "mass":
            raise ValueError(
                f"set {echo(s.name)} must be mass kind for restrict-check, got {s.kind!r}"
            )
        return s.value

    target_set = _resolve(sets, args.target)
    names = [n.strip() for n in args.basis.split(",") if n.strip()]
    if not names:
        raise ValueError("--basis needs at least one set name")
    target = mass_kind(target_set)
    basis = [mass_kind(_resolve(sets, n)) for n in names]
    coefficients = linear_combination(target, basis)
    doc = {
        "command": "restrict-check",
        "target": target_set.name,
        "basis": names,
        "coefficients": (
            None
            if coefficients is None
            else [format_fraction(c) for c in coefficients]
        ),
        "reachability": {
            name: {
                "basis_to_target": reachable_type1(m, target),
                "target_to_basis": reachable_type1(target, m),
            }
            for name, m in zip(names, basis)
        },
    }
    return specfile.render(doc)


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {echo(raw)}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {echo(raw)}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdist",
        description="Mass-assignment fuzzy set operations: distances, "
        "semantic unification, defuzzification, restriction checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("mass", help="materialize a named set's mass assignment")
    p.add_argument("spec", help="path to the JSON set document")
    p.add_argument("name", help="set name")
    p.add_argument("--slices", type=_positive_int, help="slice count for points sets")
    p.set_defaults(func=cmd_mass)

    p = sub.add_parser("distance", help="fuzzy distance between two numeric sets")
    p.add_argument("spec", help="path to the JSON set document")
    p.add_argument("a", help="first set name")
    p.add_argument("b", help="second set name")
    p.add_argument(
        "--directional",
        action="store_true",
        help="signed differences b - a instead of absolute distance",
    )
    p.add_argument(
        "--strategy",
        choices=[s.value for s in Strategy],
        help="mass pairing strategy (default: diagonal for normal sets, else product)",
    )
    p.add_argument("--slices", type=_positive_int, help="slice count for points sets")
    p.add_argument(
        "--plot-step",
        help="print x,mu CSV rows at this spacing instead of the JSON document",
    )
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("unify", help="semantic unification of two discrete sets")
    p.add_argument("spec", help="path to the JSON set document")
    p.add_argument("a", help="claim set name")
    p.add_argument("g", help="evidence set name")
    p.add_argument(
        "--routing",
        choices=["product", "maximal", "both"],
        default="both",
        help="mass routing rule (default: both)",
    )
    p.set_defaults(func=cmd_unify)

    p = sub.add_parser("defuzz", help="point and interval summaries of a numeric set")
    p.add_argument("spec", help="path to the JSON set document")
    p.add_argument("name", help="set name")
    p.set_defaults(func=cmd_defuzz)

    p = sub.add_parser(
        "restrict-check",
        help="linear-combination and restriction reachability checks",
    )
    p.add_argument("spec", help="path to the JSON set document")
    p.add_argument("target", help="target mass assignment name")
    p.add_argument(
        "--basis",
        required=True,
        help="comma-separated names of candidate basis mass assignments",
    )
    p.set_defaults(func=cmd_restrict_check)

    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        tolerance = _env_tolerance()
        sets = specfile.load(args.spec, tolerance=tolerance)
        sys.stdout.write(args.func(args, sets))
        sys.stdout.flush()  # a full disk or a closed pipe fails here, not at exit
    except (ValueError, TypeError, OSError) as exc:
        print(f"fdist: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
