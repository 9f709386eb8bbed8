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
Each is read once, at its field, by intervals.read into the (n, d) pair
it is written as (a JSON literal with a point or an exponent kept as its
text until then, intervals.Literal). Points vertices and discrete grades
become Fractions; a mass set's rows, each a label set or spans checked
in order (_focal) with its mass, go as read to mass.keyed, the one
builder of assignments (MassAssignment._from_rows), so its entries are
built only when read.
Non-finite numbers (JSON Infinity and NaN, strings such as "inf") are
rejected with a SpecError, and so is a key given twice in one object,
of which JSON would keep only the last.
A focal element is a list of [lo, hi] interval pairs, a list of string
labels, or [] for the empty set. The optional "slices" field on a
points set names its preferred slicing resolution.

Serialization uses canonical exact number strings, so emitted mass
documents re-parse to equal values (round-trip fidelity), and ``render``
writes a result document as ``json.dumps(doc, indent=2)`` would. The
long parts of a result, the entries of a mass document and the steps of
a fuzzy set, are written as text, one template per row (``mass_frame``,
``fuzzy_rows``), and handed to render as ``Rows``, which it indents to
where they sit. Both read the keys a result is held as (see mass), never
its entries or steps: one ``formatter`` per op writes each key under its
scale through intervals.key_writer, the one writer of exact numbers,
each distinct key once for all of the op's documents. ``mass_to_doc``,
``fuzzy_to_doc`` and ``focal_to_doc`` return that text decoded. A set
name or label holding a surrogate pair, which JSON would read back as one
character, is refused (intervals.SurrogatePairError).
"""

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional, Union

from .intervals import (
    DEFAULT_TOLERANCE,
    Key,
    Literal,
    brief,
    cut,
    digit_limit,
    echo,
    format_fraction,
    key_writer,
    read,
    refuse_surrogate_pairs,
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

Formatter = Callable[[Optional[int]], Callable[[Key], str]]  # see formatter

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


def _number(value, path: str) -> tuple:
    """The exact number at path, read as (n, d) (intervals.read). A number
    that would not print back, its numerator or denominator past the
    interpreter's integer digit limit (as "1.5e4300" is), is refused here:
    it could be read but never written in a result."""
    if isinstance(value, bool):
        raise SpecError(path, "expected a number, got a boolean")
    try:
        return read(value, printable=True)
    except (TypeError, ValueError) as exc:
        raise SpecError(path, str(exc)) from None


def _focal(value, path: str):
    """A label set, or the [lo, hi] spans of a union as read (n, d) pairs,
    in order and not yet merged; [] for the empty set."""
    if not isinstance(value, list):
        raise SpecError(path, "focal element must be a list")
    if value and all(isinstance(v, str) for v in value):
        return as_focal(frozenset(value))
    spans = []
    for i, pair in enumerate(value):
        here = f"{path}[{i}]"
        if isinstance(pair, str):
            raise SpecError(here, "cannot mix labels and intervals")
        if not isinstance(pair, list) or len(pair) != 2:
            raise SpecError(here, "expected an [lo, hi] pair")
        lo, hi = _number(pair[0], here), _number(pair[1], here)
        if lo[0] * hi[1] > hi[0] * lo[1]:
            lo, hi = Fraction(*lo), Fraction(*hi)
            raise SpecError(here, f"interval endpoints out of order: {brief(lo)} > {brief(hi)}")
        spans.append((lo, hi))
    return spans


def _expect_keys(obj: dict, path: str, required: set, optional: set = frozenset()):
    if isinstance(obj, _Twice):
        raise SpecError(path, f"key {echo(obj.key)} given twice in one object")
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
            vertices.append(tuple(Fraction(*_number(v, f"{here}[{i}]")) for v in pair))
        try:
            value: SpecValue = PiecewiseShape(vertices)
        except ValueError as exc:
            raise SpecError(here, str(exc)) from None
    elif kind == "discrete":
        if not isinstance(body, dict) or not body:
            raise SpecError(here, "grades must be a non-empty object")
        _expect_keys(body, here, set(), body.keys())  # any labels, each once
        grades = {
            label: Fraction(*_number(g, f"{here}.{cut(label)}")) for label, g in body.items()
        }
        try:
            value = DiscreteFuzzySet(grades)
        except ValueError as exc:
            raise SpecError(here, str(exc)) from None
    else:
        if not isinstance(body, list) or not body:
            raise SpecError(here, "entries must be a non-empty list")
        rows = []
        for i, entry in enumerate(body):
            row = f"{here}[{i}]"
            if not isinstance(entry, dict):
                raise SpecError(row, "each entry must be an object")
            _expect_keys(entry, row, {"focal", "mass"})
            rows.append(
                (_focal(entry["focal"], f"{row}.focal"), _number(entry["mass"], f"{row}.mass"))
            )
        try:
            value = MassAssignment._from_rows(rows, tolerance)
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


class _Twice(dict):
    """A decoded JSON object that gives .key twice (JSON keeps the last)."""


def _object(pairs: list) -> dict:
    """A decoded JSON object, a _Twice if it gives a key twice (see _expect_keys)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        obj = _Twice(obj)
        obj.key = next(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
    return obj


def parse_text(text: str, *, tolerance: Fraction = DEFAULT_TOLERANCE) -> dict:
    try:
        # exact; _number reads a literal at its field
        doc = json.loads(text, parse_float=Literal, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise SpecError(f"$ (line {exc.lineno})", exc.msg) from None
    except RecursionError:
        raise SpecError("$", "document nested too deeply") from None
    except ValueError:  # int() refuses literals past the interpreter's digit limit
        raise SpecError("$", f"integer literal longer than {digit_limit()} digits") from None
    return parse_document(doc, tolerance=tolerance)


def load(path, *, tolerance: Fraction = DEFAULT_TOLERANCE) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_text(text, tolerance=tolerance)


# ---------------------------------------------------------------------------
# result serialization (documents that re-parse to equal values)

class _Texts(dict):
    """The text of each key under one scale, written on first lookup."""

    __slots__ = ("write",)

    def __init__(self, scale: Optional[int]):
        super().__init__()
        self.write = key_writer(scale)

    def __missing__(self, k: Key) -> str:
        text = self[k] = self.write(k)
        return text


def formatter() -> Formatter:
    """The number writer of one op's documents: formatter()(scale) writes
    a key under scale through intervals.key_writer(scale), each distinct
    key of a scale once. The memos live as long as the function returned,
    so every document written through it shares them."""
    memos: dict = {}

    def at(scale: Optional[int]) -> Callable[[Key], str]:
        texts = memos.get(scale)
        if texts is None:
            texts = memos[scale] = _Texts(scale)
        return texts.__getitem__

    return at


@dataclass(frozen=True)
class Rows:
    """JSON text written as render writes it at the top level, for render
    to place at any depth: it indents every line after the first to the
    depth the rows sit at."""

    text: str


# One template per row of a result document, each written as render would
# write it at the top level. Numbers go in unescaped: the key writer
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


def _focal_items(key: tuple, num: Callable[[Key], str]) -> str:
    """The items of a focal element's list as its mass entry row holds
    them, from its part keys (a label set's sorted labels), endpoints
    written by num; "" for the empty set."""
    if key and isinstance(key[0], str):
        return ",".join([_LABEL % encode_basestring_ascii(label) for label in key])
    return ",".join([_PART % (num(lo), num(hi)) for lo, hi in key])


def fuzzy_rows(f: NumericFuzzySet, text: Formatter) -> Rows:
    """f's steps, one row per step, from its runs (see NumericFuzzySet)."""
    num, mu = text(f._scale), text(f._mass_scale)
    return _rows([
        _STEP % (mu(value), num(lo), num(hi), _BOOL[lo_open], _BOOL[hi_open])
        for lo, hi, value, lo_open, hi_open in f._keys
    ])


def mass_frame(m: MassAssignment, name: str, text: Formatter) -> dict:
    """The kind-"mass" set document for m, its entries written as Rows,
    one row per entry, from m's stored keys. A name holding a surrogate
    pair raises SurrogatePairError."""
    if not name.isascii():
        refuse_surrogate_pairs(name, "set name")
    num, mass = text(m._scale), text(m._mass_scale)
    rows = []
    for key, k in m._keys:
        items = _focal_items(key, num)
        rows.append(_ENTRY % (items, mass(k)) if items else _EMPTY_ENTRY % mass(k))
    return {"name": name, "kind": "mass", "entries": _rows(rows)}


def focal_to_doc(f: Focal) -> list:
    return json.loads("[" + _focal_items(as_focal(f).part_keys(), format_fraction) + "]")


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
