"""Input documents describing named fuzzy sets, and result serialization.

The document is JSON: {"sets": [...]}, one object per set with a unique
"name" and a "kind" of "points", "discrete", or "mass":

    {"name": "A",  "kind": "points",
     "vertices": [[1, 0], [3, 1], [5, 0]], "slices": 2}
    {"name": "claim", "kind": "discrete",
     "grades": {"a": 1, "b": "0.7", "c": "0.2"}}
    {"name": "mA", "kind": "mass",
     "entries": [{"focal": [[1, 5]], "mass": "0.5"},
                 {"focal": [],      "mass": "0.5"}]}

Numbers may be JSON numbers or strings; decimal literals parse exactly
(0.1 means one tenth) and strings also accept fraction syntax ("1/16").
Non-finite numbers (JSON Infinity and NaN, strings such as "inf") are
rejected with a SpecError.
A focal element is a list of [lo, hi] interval pairs, a list of string
labels, or [] for the empty set. The optional "slices" field on a
points set names its preferred slicing resolution.

Serialization uses canonical exact number strings, so emitted mass
documents re-parse to equal values (round-trip fidelity), and ``render``
writes a result document as ``json.dumps(doc, indent=2)`` would. The
long parts of a result, the entries of a mass document and the steps of
a fuzzy set, are written as text, one template per row (``mass_frame``,
``fuzzy_rows``), and handed to render as ``Rows``, which it indents to
where they sit. One ``formatter`` per op formats each distinct number
once for all of the op's documents. ``mass_to_doc``, ``fuzzy_to_doc``
and ``focal_to_doc`` return that text decoded.
"""

import json
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional, Union

from .intervals import (
    DEFAULT_TOLERANCE,
    IntervalUnion,
    as_fraction,
    brief,
    cut,
    echo,
    format_fraction,
    merge_spans,
)
from .mass import (
    DiscreteFuzzySet,
    Focal,
    MassAssignment,
    NumericFuzzySet,
    PiecewiseShape,
    as_focal,
)
from .unification import TruthAssignment, TruthLabel

KINDS = ("points", "discrete", "mass")

SpecValue = Union[PiecewiseShape, DiscreteFuzzySet, MassAssignment]


class SpecError(ValueError):
    """Malformed input document; the message names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class SpecSet:
    """One named fuzzy set from an input document."""

    name: str
    kind: str
    value: SpecValue
    slices: Optional[int] = None


def _number(value, path: str) -> Fraction:
    """The exact number at path. A number that would not print back, its
    numerator or denominator past the interpreter's integer digit limit
    (as "1.5e4300" is), is refused here: it could be read but never
    written in a result."""
    if isinstance(value, bool):
        raise SpecError(path, "expected a number, got a boolean")
    try:
        q = as_fraction(value)
        limit = sys.get_int_max_str_digits()
        # Text of at most limit characters and no exponent has at most that
        # many digits; 2**(3 * limit) < 10**limit, so no fewer bits pass it.
        plain = isinstance(value, str) and len(value) <= limit and not ("e" in value or "E" in value)
        bits = max(q.numerator.bit_length(), q.denominator.bit_length()) if not plain else 0
        if limit and bits > 3 * limit:
            format_fraction(q)  # raises when the number does not print
        return q
    except (TypeError, ValueError) as exc:
        raise SpecError(path, str(exc)) from None


def _focal(value, path: str) -> Focal:
    if not isinstance(value, list):
        raise SpecError(path, "focal element must be a list")
    if all(isinstance(v, str) for v in value):  # [] too: the empty set
        return as_focal(frozenset(value))
    parts = []
    for i, pair in enumerate(value):
        here = f"{path}[{i}]"
        if isinstance(pair, str):
            raise SpecError(here, "cannot mix labels and intervals")
        if not isinstance(pair, list) or len(pair) != 2:
            raise SpecError(here, "expected an [lo, hi] pair")
        lo, hi = (_number(v, here) for v in pair)
        if lo > hi:
            raise SpecError(here, f"interval endpoints out of order: {brief(lo)} > {brief(hi)}")
        parts.append((lo, hi))
    return IntervalUnion._from_merged(merge_spans(parts))


def _expect_keys(obj: dict, path: str, required: set, optional: set = frozenset()):
    missing = required - obj.keys()
    if missing:
        raise SpecError(path, f"missing field {sorted(missing)[0]!r}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise SpecError(path, f"unknown field {echo(sorted(unknown)[0])}")


def _parse_set(obj, path: str, tolerance: Fraction) -> SpecSet:
    if not isinstance(obj, dict):
        raise SpecError(path, "each set must be an object")
    _expect_keys(obj, path, {"name", "kind"}, {"vertices", "grades", "entries", "slices"})
    name = obj["name"]
    if not isinstance(name, str) or not name:
        raise SpecError(f"{path}.name", "name must be a non-empty string")
    kind = obj["kind"]
    if kind not in KINDS:
        raise SpecError(f"{path}.kind", f"kind must be one of {', '.join(KINDS)}")

    slices = obj.get("slices")
    if slices is not None:
        if kind != "points":
            raise SpecError(f"{path}.slices", "slices applies only to points sets")
        if isinstance(slices, bool) or not isinstance(slices, int) or slices < 1:
            raise SpecError(f"{path}.slices", "slices must be a positive integer")

    field = {"points": "vertices", "discrete": "grades", "mass": "entries"}[kind]
    if field not in obj:
        raise SpecError(path, f"a {kind} set needs {field!r}")
    for other in {"vertices", "grades", "entries"} - {field}:
        if other in obj:
            raise SpecError(f"{path}.{other}", f"not allowed on a {kind} set")
    body = obj[field]
    here = f"{path}.{field}"

    if kind == "points":
        if not isinstance(body, list) or not body:
            raise SpecError(here, "vertices must be a non-empty list")
        vertices = []
        for i, pair in enumerate(body):
            if not isinstance(pair, list) or len(pair) != 2:
                raise SpecError(f"{here}[{i}]", "expected an [x, membership] pair")
            vertices.append(tuple(_number(v, f"{here}[{i}]") for v in pair))
        try:
            value: SpecValue = PiecewiseShape(vertices)
        except ValueError as exc:
            raise SpecError(here, str(exc)) from None
    elif kind == "discrete":
        if not isinstance(body, dict) or not body:
            raise SpecError(here, "grades must be a non-empty object")
        grades = {
            label: _number(g, f"{here}.{cut(label)}") for label, g in body.items()
        }
        try:
            value = DiscreteFuzzySet(grades)
        except ValueError as exc:
            raise SpecError(here, str(exc)) from None
    else:
        if not isinstance(body, list) or not body:
            raise SpecError(here, "entries must be a non-empty list")
        entries = []
        for i, entry in enumerate(body):
            row = f"{here}[{i}]"
            if not isinstance(entry, dict):
                raise SpecError(row, "each entry must be an object")
            _expect_keys(entry, row, {"focal", "mass"})
            entries.append(
                (_focal(entry["focal"], f"{row}.focal"), _number(entry["mass"], f"{row}.mass"))
            )
        try:
            value = MassAssignment(entries, tolerance=tolerance)
        except ValueError as exc:
            raise SpecError(here, str(exc)) from None

    return SpecSet(name, kind, value, slices)


def parse_document(doc, *, tolerance: Fraction = DEFAULT_TOLERANCE) -> dict:
    """Validate a decoded document; returns name -> SpecSet."""
    if not isinstance(doc, dict):
        raise SpecError("$", "document must be an object")
    _expect_keys(doc, "$", {"sets"})
    if not isinstance(doc["sets"], list):
        raise SpecError("$.sets", "sets must be a list")
    out: dict = {}
    for i, obj in enumerate(doc["sets"]):
        parsed = _parse_set(obj, f"$.sets[{i}]", tolerance)
        if parsed.name in out:
            raise SpecError(f"$.sets[{i}].name", f"duplicate set name {echo(parsed.name)}")
        out[parsed.name] = parsed
    return out


def parse_text(text: str, *, tolerance: Fraction = DEFAULT_TOLERANCE) -> dict:
    try:
        doc = json.loads(text, parse_float=Decimal)  # exact; _number converts at its field
    except json.JSONDecodeError as exc:
        raise SpecError(f"$ (line {exc.lineno})", exc.msg) from None
    except RecursionError:
        raise SpecError("$", "document nested too deeply") from None
    except ValueError:  # int() refuses literals past the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise SpecError("$", f"integer literal longer than {limit} digits") from None
    return parse_document(doc, tolerance=tolerance)


def load(path, *, tolerance: Fraction = DEFAULT_TOLERANCE) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_text(text, tolerance=tolerance)


# ---------------------------------------------------------------------------
# result serialization (documents that re-parse to equal values)

def formatter() -> Callable[[Fraction], str]:
    """format_fraction for the numbers of one op's documents, each distinct
    number formatted once. The memo is keyed by (numerator, denominator),
    which hashes faster than the Fraction, and lives as long as the
    function returned."""
    memo: dict = {}

    def text(q: Fraction) -> str:
        key = q.as_integer_ratio()
        out = memo.get(key)
        if out is None:
            out = memo[key] = format_fraction(q)
        return out

    return text


@dataclass(frozen=True)
class Rows:
    """JSON text written as render writes it at the top level, for render
    to place at any depth: it indents every line after the first to the
    depth the rows sit at."""

    text: str


# One template per row of a result document, each written as render would
# write it at the top level. Numbers go in unescaped: format_fraction
# writes only digits, "-", "." and "/".
_PART = '\n      [\n        "%s",\n        "%s"\n      ]'
_LABEL = "\n      %s"
_ENTRY = '\n  {\n    "focal": [%s\n    ],\n    "mass": "%s"\n  }'
_EMPTY_ENTRY = '\n  {\n    "focal": [],\n    "mass": "%s"\n  }'
_STEP = (
    '\n  {\n    "mu": "%s",\n    "lo": "%s",\n    "hi": "%s",'
    '\n    "lo_open": %s,\n    "hi_open": %s\n  }'
)
_BOOL = {False: "false", True: "true"}


def _rows(rows: list) -> Rows:
    return Rows("[" + ",".join(rows) + "\n]" if rows else "[]")


def _focal_items(f: Focal, text: Callable[[Fraction], str]) -> str:
    """The items of focal element f's list as its mass entry row holds
    them; "" for the empty set."""
    if isinstance(f, frozenset):
        return ",".join([_LABEL % encode_basestring_ascii(label) for label in sorted(f)])
    return ",".join([_PART % (text(p.lo), text(p.hi)) for p in f.parts])


def fuzzy_rows(f: NumericFuzzySet, text: Callable[[Fraction], str]) -> Rows:
    """f's steps, one row per step."""
    return _rows([
        _STEP % (text(s.mu), text(s.lo), text(s.hi), _BOOL[s.lo_open], _BOOL[s.hi_open])
        for s in f.steps
    ])


def mass_frame(m: MassAssignment, name: str, text: Callable[[Fraction], str]) -> dict:
    """The kind-"mass" set document for m, its entries written as Rows,
    one row per entry."""
    rows = []
    for f, mass in m.entries:
        items = _focal_items(f, text)
        rows.append(_ENTRY % (items, text(mass)) if items else _EMPTY_ENTRY % text(mass))
    return {"name": name, "kind": "mass", "entries": _rows(rows)}


def focal_to_doc(f: Focal) -> list:
    return json.loads("[" + _focal_items(f, format_fraction) + "]")


def mass_to_doc(m: MassAssignment, name: str = "result") -> dict:
    """A kind-"mass" set document for this assignment: mass_frame with
    its rows decoded."""
    doc = mass_frame(m, name, formatter())
    doc["entries"] = json.loads(doc["entries"].text)
    return doc


def fuzzy_to_doc(f: NumericFuzzySet) -> list:
    return json.loads(fuzzy_rows(f, formatter()).text)


def truth_to_doc(t: TruthAssignment) -> dict:
    return {label.value: format_fraction(t[label]) for label in TruthLabel}


def render(doc) -> str:
    """The text of ``json.dumps(doc, indent=2)`` plus a newline, for the
    types result documents hold: str, bool, None, and lists and dicts with
    str keys, with Rows written in place as the value they encode. Any
    other type raises TypeError. The stdlib's C encoder ignores
    ``indent``, so json.dumps would run its pure-Python one."""
    out: list = []
    _write(doc, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, emit) -> None:
    if isinstance(value, str):
        emit(encode_basestring_ascii(value))
    elif value is None:
        emit("null")
    elif value is True:
        emit("true")
    elif value is False:
        emit("false")
    elif isinstance(value, list):
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            emit(sep)
            _write(item, inner, emit)
            sep = "," + inner
        emit(newline + "]")
    elif isinstance(value, dict):
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            emit(sep)
            emit(encode_basestring_ascii(key))  # a TypeError naming any other key type
            emit(": ")
            _write(item, inner, emit)
            sep = "," + inner
        emit(newline + "}")
    elif type(value) is Rows:
        emit(value.text.replace("\n", newline))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
