"""Which pairings of slice masses can mix into the product assignment?

Levels sliced uniformly give each input n slices of equal mass. Any
permutation of {1..n} yields a pairing strategy (the diagonal is the
identity, the anti-diagonal is the full reversal). This experiment asks,
for the two shipped triangles:

  1. does some convex mixture of the diagonal and anti-diagonal pairings
     reproduce the product (independent-routing) distance mass?
  2. does some convex mixture over ALL n! permutation pairings?

At 2 slices both succeed; from 3 slices up the two named pairings stop
being enough while the full permutation family still spans the product,
mirroring the Birkhoff decomposition of the uniform doubly stochastic
routing matrix.

Usage: python scripts/orthogonal_search.py [--slices N] [--directional]
"""

import argparse
import sys
from itertools import permutations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fdist import (  # noqa: E402
    MassAssignment,
    SlicedAssignment,
    Strategy,
    distance,
    linear_combination,
    load,
    slice_shape,
)

DATA = Path(__file__).resolve().parent.parent / "data" / "worked_sets.json"


def permutation_mass(sa, sb, perm, directional) -> MassAssignment:
    """Pair slice k of a with slice perm[k] of b: the diagonal distance
    against b's slices restacked in perm's order, which pairs them one to
    one, as every slice has mass 1/n."""
    restacked = SlicedAssignment(sb.slices[j] for j in perm)
    return distance(sa, restacked, strategy=Strategy.DIAGONAL, directional=directional).mass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slices", type=int, default=4, help="slice count (default 4)")
    parser.add_argument(
        "--directional", action="store_true", help="use signed differences"
    )
    args = parser.parse_args()
    n = args.slices
    if not 1 <= n <= 6:
        parser.error("--slices must be between 1 and 6 (n! pairings are enumerated)")

    sets = load(DATA)
    a, b = sets["A"].value, sets["B"].value
    product = distance(
        a, b, strategy=Strategy.PRODUCT, n_slices=n, directional=args.directional
    ).mass
    print(f"product mass at {n} slices: {product}")

    named = [
        distance(a, b, strategy=s, n_slices=n, directional=args.directional).mass
        for s in (Strategy.DIAGONAL, Strategy.ANTIDIAGONAL)
    ]
    coefficients = linear_combination(product, named)
    if coefficients is None:
        print("diagonal + anti-diagonal: no mixture reproduces the product")
    else:
        print(
            "diagonal + anti-diagonal: product = "
            f"{coefficients[0]}*diagonal + {coefficients[1]}*anti-diagonal"
        )

    sa, sb = slice_shape(a, n), slice_shape(b, n)
    perms = list(permutations(range(n)))
    family = [permutation_mass(sa, sb, p, args.directional) for p in perms]
    coefficients = linear_combination(product, family)
    if coefficients is None:
        print(f"all {len(perms)} permutation pairings: no mixture found")
    else:
        used = [
            (perm, c) for perm, c in zip(perms, coefficients) if c != 0
        ]
        print(
            f"all {len(perms)} permutation pairings: mixture found using "
            f"{len(used)} of them"
        )
        for perm, c in used:
            pairing = " ".join(f"{k + 1}->{j + 1}" for k, j in enumerate(perm))
            print(f"  weight {c}: {pairing}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
