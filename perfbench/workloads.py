"""Seeded generators for the three benchmark workloads.

A workload is one pass: a fixed list of fdist command lines over small
generated set documents, replayed in a closed loop.

Two random streams build a pass. The structure of every input (sizes,
widths, dips, grade patterns, chain supports) comes from a stream with a
fixed seed, because the cost of exact fdist operations swings by up to
ten times with coincidences between widths and with simplex pivot
paths; letting the run seed pick structure made the p50 of the same
workload differ by a third from seed to seed. The run seed then places
each input: it scales and shifts the abscissae of both sets of an op by
one affine map, renames labels without changing their order, and orders
the pass. Those changes alter every input document but none of the work
each op does, so runs on different seeds measure the same thing.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional


@dataclass
class Op:
    """One fdist invocation. ``argv[1]`` is the name of a document in
    ``Workload.docs``; the runner swaps in its path."""

    kind: str  # verifier: distance, mass, plot, defuzz, unify, restrict
    argv: list
    stats: dict = field(default_factory=dict)
    # plot ops: argv of the JSON distance op whose mass the plot samples
    companion: Optional[list] = None
    # defuzz ops: the distance op whose emitted mass document is the input
    source: Optional["Op"] = None


@dataclass
class Workload:
    docs: dict  # document name -> decoded JSON document
    ops: list


def _q(x: Fraction) -> str:
    return str(x) if x.denominator != 1 else str(x.numerator)


def _points(name: str, vertices, slices=None) -> dict:
    doc = {"name": name, "kind": "points", "vertices": [[_q(x), _q(m)] for x, m in vertices]}
    if slices is not None:
        doc["slices"] = slices
    return doc


# ---------------------------------------------------------------------------
# shapes: integer abscissae keep the exact arithmetic representative of
# hand-written inputs; memberships sit on simple grids

def skew_triangle(rng, x0, height=Fraction(1)):
    near, far = rng.randint(1, 3), rng.randint(6, 12)
    if rng.random() < 0.5:
        near, far = far, near
    return [(x0, 0), (x0 + near, height), (x0 + near + far, 0)]


def trapezoid(rng, x0, height=Fraction(1)):
    up, top, down = rng.randint(1, 4), rng.randint(2, 6), rng.randint(1, 4)
    return [(x0, 0), (x0 + up, height), (x0 + up + top, height), (x0 + up + top + down, 0)]


def fork(rng, x0):
    """Two peaks at membership 1 with a dip between them, so level cuts
    above the dip are two-part interval unions."""
    p1, d1, d2, p2 = (rng.randint(1, 4) for _ in range(4))
    dip = Fraction(rng.choice((1, 2, 3)), 5)
    xs = [x0, x0 + p1, x0 + p1 + d1, x0 + p1 + d1 + d2, x0 + p1 + d1 + d2 + p2]
    return list(zip(xs, (0, 1, dip, 1, 0)))


def similar_triangle(rng, base):
    """The base triangle scaled by 1, 5/4 or 3/2 and shifted."""
    scale = rng.choice((Fraction(1), Fraction(5, 4), Fraction(3, 2)))
    shift = rng.randint(-3, 8)
    x0 = base[0][0]
    return [(x0 + (x - x0) * scale + shift, m) for x, m in base]


TEMPLATE_SEED = 1409


def affine(place):
    """The run seed's part of a shape op: one map x -> scale * x + shift
    for both of its sets; returns (scale, map over a vertex list)."""
    scale, shift = place.choice((1, 2, 3)), place.randint(-20, 20)
    return scale, lambda vertices: [(scale * x + shift, m) for x, m in vertices]


# ---------------------------------------------------------------------------
# distance-product: n^2 cells between unlike shapes

# (slices, copies per pass): n^2 cells grow fast, so the pass leans toward
# the small end to keep one pass near seven seconds while reaching 20;
# every slice count in between keeps neighbouring op costs close, so the
# p50 and p90 do not jump between two distant ops from run to run
PRODUCT_SLICES = ((6, 8), (7, 8), (8, 7), (9, 7), (10, 6), (11, 6), (12, 5), (13, 4),
                  (14, 4), (15, 3), (16, 2), (17, 2), (18, 1), (19, 1), (20, 1))
PRODUCT_PAIRS = ("skew-trap", "skew-fork", "trap-fork", "subnormal")
DEFUZZ_MAX_SLICES = 12  # defuzz of a 20-slice product takes seconds today


def distance_product(seed: int) -> Workload:
    rng, place = random.Random(TEMPLATE_SEED), random.Random(seed)
    docs, ops = {}, []
    sizes = [n for n, copies in PRODUCT_SLICES for _ in range(copies)]
    small = [i for i, n in enumerate(sizes) if n <= DEFUZZ_MAX_SLICES]
    followed = set(small[1::3])  # about a quarter of the distance ops
    for i, n in enumerate(sizes):
        pair = PRODUCT_PAIRS[i % len(PRODUCT_PAIRS)]
        xa, xb = rng.randint(0, 10), rng.randint(0, 16)
        if pair == "skew-trap":
            va, vb = skew_triangle(rng, xa), trapezoid(rng, xb)
        elif pair == "skew-fork":
            va, vb = skew_triangle(rng, xa), fork(rng, xb)
        elif pair == "trap-fork":
            va, vb = trapezoid(rng, xa), fork(rng, xb)
        else:
            height = Fraction(rng.choice((6, 7, 8, 9)), 10)
            va = skew_triangle(rng, xa, height)
            vb = trapezoid(rng, xb) if (i // 8) % 2 else fork(rng, xb)
        name = f"p{i:02d}"
        _, move = affine(place)
        docs[name] = {"sets": [
            _points("A", move(va)), _points("B", move(vb)),
        ]}
        argv = ["distance", name, "A", "B", "--slices", str(n)]
        if pair != "subnormal":  # subnormal pairs resolve to product by default
            argv += ["--strategy", "product"]
        if (i // 4) % 2:
            argv.append("--directional")
        focals = 2 * n + (pair == "subnormal")  # a subnormal A adds an empty slice
        op = Op("distance", argv, {"pair": pair, "strategy": "product", "slices": n,
                                   "cells": n * n, "focals": focals})
        ops.append(op)
        if i in followed:
            ops.append(Op("defuzz", ["defuzz", f"{name}-d", "D(A,B)"],
                          {"pair": pair, "slices": n}, source=op))
    place.shuffle(ops)
    return Workload(docs, ops)


# ---------------------------------------------------------------------------
# distance-paired: n result cells at 50-300 slices, plus mass and plots

# (slices, copies per pass): sixty ops keep neighbouring op costs close,
# so the p50 and p90 do not jump between two distant ops from run to run;
# weighted toward the small end so a pass stays near seven seconds
PAIRED_SLICES = ((50, 12), (64, 12), (80, 10), (100, 8), (128, 6), (160, 3),
                 (200, 2), (300, 1))
MASS_SLICES = (50, 64, 80)
PLOT_SLICES = (50, 64, 80)
PLOT_STEP = Fraction(1, 20)


def _paired_shapes(rng, similar: bool):
    if similar:
        x0 = rng.randint(0, 6)
        if rng.random() < 0.5:
            base = skew_triangle(rng, x0)
        else:
            half = rng.randint(2, 5)
            base = [(x0, 0), (x0 + half, 1), (x0 + 2 * half, 0)]
        return base, similar_triangle(rng, base)
    va = fork(rng, rng.randint(0, 6))
    x0 = rng.randint(0, 12)
    vb = fork(rng, x0) if rng.random() < 0.5 else trapezoid(rng, x0)
    return va, vb


def distance_paired(seed: int) -> Workload:
    rng, place = random.Random(TEMPLATE_SEED + 1), random.Random(seed)
    docs, ops = {}, []
    sizes = [n for n, copies in PAIRED_SLICES for _ in range(copies)]
    for i, n in enumerate(sizes):
        similar = i % 2 == 0
        va, vb = _paired_shapes(rng, similar)
        name = f"q{i:02d}"
        _, move = affine(place)
        docs[name] = {"sets": [
            _points("A", move(va), n), _points("B", move(vb), n),
        ]}
        argv = ["distance", name, "A", "B"]
        strategy = "antidiagonal" if (i // 2) % 2 else "diagonal"
        if strategy == "antidiagonal":
            argv += ["--strategy", "antidiagonal"]
        if i % 3 == 2:
            argv.append("--directional")
        ops.append(Op("distance", argv, {
            "shapes": "similar" if similar else "multimodal",
            "strategy": strategy, "slices": n, "cells": n, "focals": 2 * n,
        }))
    for j, n in enumerate(MASS_SLICES):
        name = f"m{j}"
        _, move = affine(place)
        docs[name] = {"sets": [_points("S", move(fork(rng, rng.randint(0, 10))))]}
        ops.append(Op("mass", ["mass", name, "S", "--slices", str(n)],
                      {"shapes": "multimodal", "slices": n, "focals": n}))
    for j, n in enumerate(PLOT_SLICES):
        va, vb = _paired_shapes(rng, j % 2 == 0)
        name = f"g{j}"
        scale, move = affine(place)
        docs[name] = {"sets": [
            _points("A", move(va), n), _points("B", move(vb), n),
        ]}
        argv = ["distance", name, "A", "B"]
        step = _q(PLOT_STEP * scale)  # the same number of rows at every scale
        ops.append(Op("plot", argv + ["--plot-step", step], {
            "strategy": "diagonal", "slices": n, "cells": n, "focals": 2 * n,
        }, companion=argv))
    place.shuffle(ops)
    return Workload(docs, ops)


# ---------------------------------------------------------------------------
# solve: exact LPs over label tables and restriction chains

# Unify cost follows the number of distinct grades (focal elements), not
# the label count: a 16-label pair with all grades distinct takes 13 s
# today. So labels (6-24) and distinct grades (3-7) are stratified apart.
UNIFY_LABELS = (6, 8, 10, 12, 16, 24)
# Eighty ops per pass keep neighbouring op costs close, so the p50 and p90
# do not jump between two distant ops from run to run.
UNIFY_LEVELS = ((3, 8), (4, 10), (5, 10), (6, 8), (7, 4))
CHAIN_LENGTHS = ((6, 8), (7, 8), (8, 8), (9, 5), (10, 5), (12, 3), (14, 2), (16, 1))


def _grades(rng, labels, levels: int, normal: bool) -> dict:
    """Grades on the 1/20 grid using exactly ``levels`` distinct values, so
    the set has that many focal elements (plus the empty set when its
    peak is below 1)."""
    values = rng.sample(range(1, 20), levels - 1 if normal else levels)
    if normal:
        values.append(20)
    picks = values + [rng.choice(values) for _ in range(len(labels) - levels)]
    rng.shuffle(picks)
    return {label: _q(Fraction(k, 20)) for label, k in zip(labels, picks)}


def _chain(rng, length):
    """Strictly nested intervals, widest first."""
    los = sorted(rng.sample(range(0, 60), length))
    his = sorted(rng.sample(range(61, 120), length), reverse=True)
    return [(lo, hi) for lo, hi in zip(los, his)]


def _mass_doc(name, chain, masses) -> dict:
    return {"name": name, "kind": "mass", "entries": [
        {"focal": [[str(lo), str(hi)]], "mass": _q(m)}
        for (lo, hi), m in zip(chain, masses) if m
    ]}


def solve(seed: int) -> Workload:
    rng, place = random.Random(TEMPLATE_SEED + 2), random.Random(seed)
    docs, ops = {}, []
    # zero-padded indices after a seeded stem keep the labels' sort order,
    # and with it the simplex column order, the same for every seed
    stem = "".join(place.choice("bcdfghjklmnpqrstvwxz") for _ in range(3))
    levels = [k for k, copies in UNIFY_LEVELS for _ in range(copies)]
    for i, k in enumerate(levels):
        n = max(k, UNIFY_LABELS[i % len(UNIFY_LABELS)])
        labels = [f"{stem}{j:02d}" for j in range(n)]
        name = f"u{i:02d}"
        docs[name] = {"sets": [
            {"name": "claim", "kind": "discrete",
             "grades": _grades(rng, labels, k, i % 2 == 0)},
            {"name": "evidence", "kind": "discrete",
             "grades": _grades(rng, labels, k, (i // 2) % 2 == 0)},
        ]}
        # a peak below 1 adds the empty set as a focal element
        focals = 2 * k + (i % 2 != 0) + ((i // 2) % 2 != 0)
        ops.append(Op("unify", ["unify", name, "claim", "evidence", "--routing", "both"],
                      {"labels": n, "levels": k, "focals": focals}))
    chain_sizes = [n for n, copies in CHAIN_LENGTHS for _ in range(copies)]
    for i, n in enumerate(chain_sizes):
        scale, shift = place.choice((1, 2, 3)), place.randint(-20, 20)
        chain = [(scale * lo + shift, scale * hi + shift) for lo, hi in _chain(rng, n)]
        nbases = 3 + i % 2
        bases = []
        for _ in range(nbases):
            support = rng.sample(range(n), rng.randint(2, n))
            weights = [rng.randint(1, 5) if k in support else 0 for k in range(n)]
            bases.append([Fraction(w, sum(weights)) for w in weights])
        coeffs = [rng.randint(0, 4) for _ in range(nbases)]
        coeffs[rng.randrange(nbases)] += 1
        coeffs = [Fraction(c, sum(coeffs)) for c in coeffs]
        target = [sum(c * b[k] for c, b in zip(coeffs, bases)) for k in range(n)]
        name = f"r{i:02d}"
        docs[name] = {"sets": [_mass_doc("T", chain, target)] + [
            _mass_doc(f"B{r}", chain, b) for r, b in enumerate(bases)
        ]}
        basis = ",".join(f"B{r}" for r in range(nbases))
        focals = sum(len(d["entries"]) for d in docs[name]["sets"])
        ops.append(Op("restrict", ["restrict-check", name, "T", "--basis", basis],
                      {"chain": n, "bases": nbases, "focals": focals}))
    place.shuffle(ops)
    return Workload(docs, ops)


GENERATORS = {
    "distance-product": distance_product,
    "distance-paired": distance_paired,
    "solve": solve,
}
