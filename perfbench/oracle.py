"""Brute-force checks of fdist outputs, written without fdist's algorithms.

Each check raises CheckError naming what disagreed. Checks run once per
distinct input, outside the timed loop, so they favour plainness over
speed: membership is a sum over every focal element at every breakpoint
and every midpoint between breakpoints, done in integers after scaling
all coordinates to one common denominator. The only fdist code used is
``specfile`` for the round-trip check, which is what it tests.
"""

import json
from bisect import bisect_right
from fractions import Fraction
from math import lcm

LABELS = ("ft", "t", "f", "empty")  # the lexicographic order of maximal routing


class CheckError(Exception):
    pass


def _require(condition, message):
    if not condition:
        raise CheckError(message)


def _num(text) -> Fraction:
    _require(isinstance(text, str), f"expected an exact number string, got {text!r}")
    return Fraction(text)


# ---------------------------------------------------------------------------
# numeric mass documents

def parse_mass(doc) -> list:
    """[(parts, mass)] from a kind-"mass" set; parts are (lo, hi) pairs and
    [] is the empty set."""
    _require(doc.get("kind") == "mass", "not a mass document")
    entries = []
    for entry in doc["entries"]:
        parts = [(_num(lo), _num(hi)) for lo, hi in entry["focal"]]
        for lo, hi in parts:
            _require(lo <= hi, f"interval [{lo}, {hi}] out of order")
        entries.append((parts, _num(entry["mass"])))
    return entries


def check_mass_doc(doc) -> list:
    entries = parse_mass(doc)
    _require(all(m > 0 for _, m in entries), "non-positive mass in output")
    total = sum((m for _, m in entries), Fraction(0))
    _require(total == 1, f"masses sum to {total}, not exactly 1")
    return entries


def check_roundtrip(doc, specfile) -> None:
    sets = specfile.parse_document({"sets": [doc]})
    again = specfile.mass_to_doc(sets[doc["name"]].value, name=doc["name"])
    _require(again == doc, "emitted mass document does not re-parse to an equal value")


class Grid:
    """Nonempty focal elements on an integer grid: every coordinate times
    ``scale``, which is twice a common denominator, so midpoints between
    grid points stay integral. Masses are integers over ``mass_den``."""

    def __init__(self, entries, extra_dens=()):
        nonempty = [(parts, m) for parts, m in entries if parts]
        dens = [x.denominator for parts, _ in nonempty for p in parts for x in p]
        self.scale = 2 * lcm(1, *dens, *extra_dens)
        self.mass_den = lcm(1, *(m.denominator for _, m in nonempty))
        self.focals = [
            ([(self.up(lo), self.up(hi)) for lo, hi in parts], (m * self.mass_den).numerator)
            for parts, m in nonempty
        ]
        self.points = sorted({e for parts, _ in self.focals for p in parts for e in p})

    def up(self, x: Fraction) -> int:
        y = x * self.scale
        _require(y.denominator == 1, f"{x} is off the grid")
        return y.numerator

    def mu(self, x: int) -> int:
        """Membership at grid point x, times mass_den: the total mass of
        focal elements containing x."""
        return sum(m for parts, m in self.focals if any(lo <= x <= hi for lo, hi in parts))

    def samples(self):
        """Every breakpoint and the midpoint of every gap between two."""
        pts = self.points
        for a, b in zip(pts, pts[1:]):
            yield a
            yield (a + b) // 2
        if pts:
            yield pts[-1]


def check_fuzzy(entries, steps_doc) -> None:
    """The emitted steps equal brute-force membership of the mass. Step
    endpoints must be breakpoints, so agreement at every breakpoint and
    gap midpoint proves the two functions equal everywhere."""
    grid = Grid(entries)
    steps = []
    for s in steps_doc:
        lo, hi, mu = grid.up(_num(s["lo"])), grid.up(_num(s["hi"])), _num(s["mu"])
        _require(lo <= hi and mu > 0, f"malformed step {s}")
        _require(not (lo == hi and (s["lo_open"] or s["hi_open"])), f"empty step {s}")
        steps.append((lo, hi, mu, s["lo_open"], s["hi_open"]))
    breakpoints = set(grid.points)
    for prev, nxt in zip(steps, steps[1:]):
        _require(prev[1] <= nxt[0], "steps overlap or are out of order")
        if prev[1] == nxt[0]:
            _require(prev[4] or nxt[3], "steps share a closed endpoint")
            covered = not (prev[4] and nxt[3])
            _require(not covered or prev[2] != nxt[2], "adjacent steps not merged")
    for lo, hi, *_ in steps:
        _require(lo in breakpoints and hi in breakpoints, "step endpoint is not a breakpoint")

    los = [s[0] for s in steps]

    def emitted(x: int) -> Fraction:
        i = bisect_right(los, x) - 1
        for lo, hi, mu, lo_open, hi_open in steps[max(i - 1, 0): i + 1]:
            inside = lo < x < hi or (x == lo and not lo_open) or (x == hi and not hi_open)
            if inside:
                return mu
        return Fraction(0)

    for x in grid.samples():
        want = Fraction(grid.mu(x), grid.mass_den)
        _require(emitted(x) == want, f"membership at {Fraction(x, grid.scale)} is "
                 f"{emitted(x)}, brute force gives {want}")


def check_plot(entries, text: str, step: Fraction) -> None:
    lines = text.splitlines()
    _require(lines and lines[0] == "x,mu", "plot header missing")
    grid = Grid(entries, extra_dens=(step.denominator,))
    if not grid.points:
        _require(len(lines) == 1, "plot of an empty set has rows")
        return
    lo, hi, stride = grid.points[0], grid.points[-1], grid.up(step)
    xs = range(lo, hi + 1, stride)
    _require(len(lines) - 1 == len(xs), f"plot has {len(lines) - 1} rows, expected {len(xs)}")
    for row, x in zip(lines[1:], xs):
        x_text, mu_text = row.split(",")
        _require(grid.up(Fraction(x_text)) == x, f"plot row {row!r} at the wrong x")
        want = Fraction(grid.mu(x), grid.mass_den)
        _require(Fraction(mu_text) == want, f"plot row {row!r}: brute force gives {want}")


def check_defuzz(entries, out: dict) -> None:
    """Least-prejudiced peak and centre of gravity by brute force over the
    gaps between breakpoints (single points carry no measure)."""
    empty = sum((m for parts, m in entries if not parts), Fraction(0))
    _require(_num(out["unassigned"]) == empty, "unassigned mass differs from the empty-set mass")
    grid = Grid(entries)
    pts = grid.points
    density_of = [
        (parts, Fraction(m, grid.mass_den) / Fraction(sum(hi - lo for lo, hi in parts), grid.scale))
        for parts, m in grid.focals
    ]
    gaps = []
    area = moment = Fraction(0)
    for a, b in zip(pts, pts[1:]):
        mid = (a + b) // 2
        density = sum(
            (d for parts, d in density_of if any(lo <= mid <= hi for lo, hi in parts)),
            Fraction(0),
        )
        gaps.append((a, b, density))
        mu = Fraction(grid.mu(mid), grid.mass_den)
        fa, fb = Fraction(a, grid.scale), Fraction(b, grid.scale)
        area += mu * (fb - fa)
        moment += mu * (fb * fb - fa * fa) / 2
    _require(gaps, "support is a single point")
    peak = max(d for _, _, d in gaps)
    merged = []
    for a, b, d in gaps:
        if d != peak:
            continue
        if merged and merged[-1][1] == a:
            merged[-1][1] = b
        else:
            merged.append([a, b])
    want = [[Fraction(a, grid.scale), Fraction(b, grid.scale)] for a, b in merged]
    got = [[_num(lo), _num(hi)] for lo, hi in out["max_likelihood"]]
    _require(got == want, f"max-likelihood interval {got}, brute force gives {want}")
    _require(area > 0, "zero area")
    _require(_num(out["centre_of_gravity"]) == moment / area,
             f"centre of gravity {out['centre_of_gravity']}, brute force gives {moment / area}")


# ---------------------------------------------------------------------------
# semantic unification

def discrete_mass(grades: dict) -> list:
    """[(label set, mass)]: each distinct positive grade g contributes the
    labels graded >= g, weighted by the drop to the next grade; a peak
    below 1 leaves the deficit on the empty set."""
    graded = {label: _num(g) for label, g in grades.items()}
    levels = sorted({g for g in graded.values() if g > 0}, reverse=True)
    out = []
    for level, below in zip(levels, levels[1:] + [Fraction(0)]):
        out.append((frozenset(l for l, g in graded.items() if g >= level), level - below))
    peak = levels[0] if levels else Fraction(0)
    if peak < 1:
        out.append((frozenset(), 1 - peak))
    return out


def truth_label(a: frozenset, g: frozenset) -> str:
    if not g:
        return "t" if not a else "empty"
    if not a:
        return "ft"
    if a >= g:
        return "t"
    if not a & g:
        return "f"
    return "ft"


def check_unify(doc: dict, out: dict) -> None:
    sets = {s["name"]: s for s in doc["sets"]}
    claim = discrete_mass(sets[out["claim"]]["grades"])
    evidence = discrete_mass(sets[out["evidence"]]["grades"])
    product = dict.fromkeys(LABELS, Fraction(0))
    for a, ma in claim:
        for g, mg in evidence:
            product[truth_label(a, g)] += ma * mg
    got_product = {k: _num(v) for k, v in out["product"].items()}
    _require(got_product == product, f"product routing {got_product}, direct sum gives {product}")
    maximal = {k: _num(v) for k, v in out["maximal"].items()}
    _require(set(maximal) == set(LABELS), "maximal routing lacks a label")
    _require(all(v >= 0 for v in maximal.values()), "negative maximal mass")
    _require(sum(maximal.values()) == 1, "maximal routing does not sum to 1")
    _require(tuple(maximal[k] for k in LABELS) >= tuple(product[k] for k in LABELS),
             "maximal routing is lexicographically below product routing")


# ---------------------------------------------------------------------------
# restriction checks on nested chains

def _as_dict(entries) -> dict:
    return {tuple(parts): m for parts, m in entries}


def reaches(src: dict, dst: dict, chain: list) -> bool:
    """Type-1 moves only send mass to subsets, so on a chain (widest
    first) src reaches dst exactly when, for every k, dst puts no more
    mass on the k widest sets than src does."""
    zero = Fraction(0)
    held = wanted = zero
    for focal in chain:
        held += src.get(focal, zero)
        wanted += dst.get(focal, zero)
        if wanted > held:
            return False
    return True


def check_restrict(doc: dict, out: dict, basis: list) -> None:
    sets = {s["name"]: _as_dict(check_mass_doc(s)) for s in doc["sets"]}
    target = sets[out["target"]]
    _require(out["basis"] == basis, "basis names not echoed")
    chain = sorted({f for name in [out["target"], *basis] for f in sets[name]},
                   key=lambda f: -sum(hi - lo for lo, hi in f))
    for wide, narrow in zip(chain, chain[1:]):
        _require(all(any(a <= lo and hi <= b for a, b in wide) for lo, hi in narrow),
                 "input focal elements are not a chain")
    coefficients = out["coefficients"]
    _require(coefficients is not None, "target is a mixture of the basis, but no coefficients found")
    cs = [_num(c) for c in coefficients]
    _require(len(cs) == len(basis) and all(c >= 0 for c in cs) and sum(cs) == 1,
             f"coefficients {coefficients} are not a convex combination")
    combined: dict = {}
    for c, name in zip(cs, basis):
        for focal, m in sets[name].items():
            combined[focal] = combined.get(focal, Fraction(0)) + c * m
    combined = {f: m for f, m in combined.items() if m}
    _require(combined == target, "coefficients do not reproduce the target")
    for name in basis:
        got = out["reachability"][name]
        want = {
            "basis_to_target": reaches(sets[name], target, chain),
            "target_to_basis": reaches(target, sets[name], chain),
        }
        _require(got == want, f"reachability for {name} is {got}, closed form gives {want}")


# ---------------------------------------------------------------------------
# per-op dispatch and deliberate corruptions for the self-check

def _doc_set(doc, name):
    return next(s for s in doc["sets"] if s["name"] == name)


def verify(op, text: str, doc: dict, specfile, companion_text=None) -> None:
    """Check one op's stdout against brute force, given the op's input
    document (and, for a plot, the JSON output of the same distance);
    raises CheckError."""
    if op.kind == "plot":
        entries = check_mass_doc(json.loads(companion_text)["mass"])
        check_plot(entries, text, Fraction(op.argv[op.argv.index("--plot-step") + 1]))
        return
    out = json.loads(text)
    _require(out.get("command") == op.argv[0], "wrong command echoed")
    if op.kind in ("distance", "mass"):
        if op.kind == "distance":
            want = op.stats["strategy"]
            _require(out["strategy"] == want, f"strategy {out['strategy']}, expected {want}")
            _require(out["directional"] == ("--directional" in op.argv), "directional flag lost")
        entries = check_mass_doc(out["mass"])
        check_roundtrip(out["mass"], specfile)
        check_fuzzy(entries, out["fuzzy"])
    elif op.kind == "defuzz":
        check_defuzz(check_mass_doc(_doc_set(doc, op.argv[2])), out)
    elif op.kind == "unify":
        check_unify(doc, out)
    elif op.kind == "restrict":
        check_restrict(doc, out, op.argv[op.argv.index("--basis") + 1].split(","))
    else:
        raise CheckError(f"no verifier for {op.kind}")


def _bump(text: str) -> str:
    return str(Fraction(text) + Fraction(1, 1000))


def _uncanonical(text: str) -> str:
    """The same number in a form fdist never prints."""
    q = Fraction(text)
    return f"{2 * q.numerator}/{2 * q.denominator}"


def _below_product(out: dict) -> None:
    """Make maximal equal product with some mass moved from its first
    nonzero label to the last label: still sums to 1, but lexicographically
    below product."""
    product = {k: Fraction(v) for k, v in out["product"].items()}
    first = next(k for k in LABELS if product[k])
    moved = min(product[first], Fraction(1, 1000))
    product[first] -= moved
    product[LABELS[-1] if first != LABELS[-1] else LABELS[0]] += moved
    out["maximal"] = {k: str(v) for k, v in product.items()}


def corruptions(kind: str, text: str) -> list:
    """Copies of a correct output, each wrong in a way one clause of the
    verifier must catch."""
    if kind == "plot":
        lines = text.splitlines()
        mid = len(lines) // 2
        x, mu = lines[mid].split(",")
        lines[mid] = f"{x},{_bump(mu)}"
        return ["\n".join(lines) + "\n"]
    out = json.loads(text)
    bad = []

    def mutated(edit):
        copy = json.loads(text)
        edit(copy)
        bad.append(json.dumps(copy))

    if kind in ("distance", "mass"):
        mutated(lambda o: o["fuzzy"][0].update(mu=_bump(o["fuzzy"][0]["mu"])))
        mutated(lambda o: o["mass"]["entries"][0].update(
            mass=_bump(o["mass"]["entries"][0]["mass"])))
        mutated(lambda o: o["mass"]["entries"][0].update(
            mass=_uncanonical(o["mass"]["entries"][0]["mass"])))
    elif kind == "defuzz":
        mutated(lambda o: o.update(centre_of_gravity=_bump(o["centre_of_gravity"])))
        mutated(lambda o: o["max_likelihood"][0].__setitem__(1, _bump(o["max_likelihood"][0][1])))
        mutated(lambda o: o.update(unassigned=_bump(o["unassigned"])))
    elif kind == "unify":
        mutated(lambda o: o["product"].update(t=_bump(o["product"]["t"])))
        mutated(lambda o: o["maximal"].update(empty=_bump(o["maximal"]["empty"])))
        mutated(_below_product)
    elif kind == "restrict":
        first = next(iter(out["reachability"]))
        mutated(lambda o: o["reachability"][first].update(
            basis_to_target=not o["reachability"][first]["basis_to_target"]))
        mutated(lambda o: o.update(coefficients=[_bump(o["coefficients"][0])] + o["coefficients"][1:]))
    return bad
