"""Recompute every worked example shipped in data/worked_sets.json.

Prints the mass assignment and fuzzy set for each distance variant, the
truth assignments for the discrete match query, the defuzzification
summaries, and the mixture checks relating the pairing strategies.

Usage: python scripts/worked_examples.py
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fdist import (  # noqa: E402
    MassAssignment,
    Strategy,
    centre_of_gravity,
    distance,
    linear_combination,
    load,
    mass_from_discrete,
    max_likelihood_interval,
    slice_shape,
    unify_maximal,
    unify_product,
)

DATA = Path(__file__).resolve().parent.parent / "data" / "worked_sets.json"


def show_mass(label: str, m: MassAssignment):
    rows = ", ".join(f"{f}:{mass}" for f, mass in m.entries)
    print(f"  {label}: {rows}")


def show_distance(label: str, result):
    show_mass(label, result.mass)
    print(f"  {' ' * len(label)}  fuzzy {result.fuzzy}")


def main() -> int:
    sets = load(DATA)
    value = {name: s.value for name, s in sets.items()}

    print("== Semantic unification (claim against evidence) ==")
    m_claim = mass_from_discrete(value["claim"])
    m_evidence = mass_from_discrete(value["evidence"])
    show_mass("m(claim)   ", m_claim)
    show_mass("m(evidence)", m_evidence)
    print(f"  product routing: {unify_product(m_claim, m_evidence)}")
    print(f"  maximal routing: {unify_maximal(m_claim, m_evidence)}")

    print("\n== Triangle pair, 2 slices ==")
    a, b = value["A"], value["B"]
    for strategy in Strategy:
        r = distance(a, b, strategy=strategy, n_slices=2)
        show_distance(f"D(A,B) {strategy.name.lower():<12}", r)

    print("\n== Triangle pair, 4 slices ==")
    for strategy in Strategy:
        r = distance(a, b, strategy=strategy, n_slices=4)
        show_distance(f"D(A,B) {strategy.name.lower():<12}", r)

    print("\n== Mixtures of pairing strategies ==")
    for n in (2, 4):
        product = distance(a, b, strategy=Strategy.PRODUCT, n_slices=n).mass
        basis = [
            distance(a, b, strategy=Strategy.DIAGONAL, n_slices=n).mass,
            distance(a, b, strategy=Strategy.ANTIDIAGONAL, n_slices=n).mass,
        ]
        coefficients = linear_combination(product, basis)
        found = (
            "no mixture of diagonal and anti-diagonal reproduces it"
            if coefficients is None
            else f"product = {coefficients[0]}*diagonal + {coefficients[1]}*anti-diagonal"
        )
        print(f"  {n} slices: {found}")

    print("\n== Signed distance, narrow triangles ==")
    na, nb = value["narrowA"], value["narrowB"]
    fwd = distance(na, nb, directional=True)
    rev = distance(nb, na, directional=True)
    show_distance("D(narrowA,narrowB)", fwd)
    show_distance("D(narrowB,narrowA)", rev)

    print("\n== Subnormal and multimodal inputs (vs narrowB) ==")
    for name in ("subA", "bimodalA", "forkA", "forkSkewA"):
        r = distance(value[name], nb)
        show_distance(f"D({name},narrowB)", r)

    print("\n== Defuzzification ==")
    for name, m in (("narrowA", na), ("narrowB", nb), ("D(narrowA,narrowB)", fwd.mass)):
        ml = max_likelihood_interval(m)
        cog = centre_of_gravity(m)
        print(f"  {name}: max-likelihood {ml}, centre of gravity {cog}")

    print("\n== Slicing the wide triangle ==")
    for n in (2, 4):
        show_mass(f"m(A) at {n} slices", slice_shape(value["A"], n).to_mass())

    return 0


if __name__ == "__main__":
    sys.exit(main())
