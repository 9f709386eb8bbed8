"""Closed intervals and canonical finite unions of them.

All arithmetic is exact: endpoints and masses are `fractions.Fraction`.
Numbers are read by one reader, read, into (numerator, denominator) pairs
as written, with no gcd: floats by their binary value (which is exact for
the dyadic data these operations are normally fed), strings by decimal or
`p/q` syntax; as_fraction is that reader reduced to a Fraction. Exact
numbers are written back by one writer, key_writer, of keys under a
scale; format_fraction is that writer at a Fraction's own denominator.
Containment is one walk over merged spans (covers), on parts or their keys,
and so is overlap (meets).
"""

import math
import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

Rational = Union[int, float, str, Fraction, Decimal, "Literal"]
Key = Union[int, Fraction]  # a number's key under a scale (see scaled)

# Comparison slack for validating sums that may arrive as rounded decimals.
# Exact-fraction pipelines never need it.
DEFAULT_TOLERANCE = Fraction(1, 10**9)

ZERO = Fraction(0)
ONE = Fraction(1)

MIXED_KINDS = "cannot mix label-set and numeric focal elements"

# Endpoint keys are integers only while the common denominator fits this
# many bits. Past it the lcm grows with the count of distinct denominators,
# not with any one of them, and such keys would cost more than the
# Fractions they stand for.
MAX_SCALE_BITS = 64

# Numbers in messages are written out in full up to this many bits over
# and under the line (see brief).
BRIEF_BITS = 128

# The least integer digit limit the interpreter takes (640): int() converts
# text of no more digits, and a number of that many digits prints back,
# whatever the limit is set to (see read).
_LEAST_LIMIT = sys.int_info.str_digits_check_threshold

# Input echoed in a message is cut to this many characters (see echo).
ECHO_CHARS = 40

# A high surrogate directly followed by a low one (see refuse_surrogate_pairs).
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


class SurrogatePairError(ValueError):
    """Text that holds a high surrogate directly followed by a low one.
    JSON writes the two as escapes, and those read back as one astral
    character, so a document holding the text would not read back equal."""


def digit_limit() -> int:
    """The most digits str() and int() convert, sys.get_int_max_str_digits(), 0 (no limit)
    read as the default 4300: it bounds the exponents read and the places written."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def as_fraction(value: Rational) -> Fraction:
    """Convert to an exact Fraction: a Fraction as itself, any other number
    as Fraction(*read(value)), so "1/16", "0.0625", 0.0625 and Decimal("0.0625")
    give one sixteenth."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*read(value))


class Literal:
    """The text of a JSON number literal with a point or an exponent, kept
    unread: specfile decodes with parse_float=Literal, so that read
    reports a literal's faults at its field. A message shows it as Decimal
    writes it (2e99999 as 2E+99999)."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        try:
            return repr(str(Decimal(self.text)))
        except ArithmeticError:  # an exponent past what Decimal holds
            return repr(self.text)


# Decimal syntax, once whitespace is stripped and underscores dropped as
# Decimal drops them: sign, whole digits, fraction digits, exponent sign
# and digits; at least one digit before the exponent.
_DECIMAL = re.compile(r"([-+]?)(?=\.?\d)(\d*)(?:\.(\d*))?(?:[eE]([-+]?)(\d+))?")
# Fraction's p/q syntax, underscores between digits (PEP 515).
_RATIO = re.compile(r"([-+]?)(\d+(?:_\d+)*)/(\d+(?:_\d+)*)")
_NON_FINITE = re.compile(r"[-+]?(?:inf(?:inity)?|s?nan\d*)", re.IGNORECASE)


def read(value: Rational, *, printable: bool = False) -> tuple:
    """The one number reader, the mirror of key_writer: value as (n, d),
    integers with d > 0 and n/d the exact number, no gcd taken, so "0.125"
    reads as (125, 1000) and "3/6" as (3, 6). Text is decimal syntax as
    Decimal reads it (whitespace around, underscores anywhere, any Unicode
    decimal digits, an exponent) or p/q as Fraction reads it, underscores
    between digits; ints, floats (their binary value), Decimals, Literals
    and Fractions are read too. Infinities and NaNs raise ValueError, and
    so do decimal exponents past digit_limit(), which would expand to
    unbounded integers; with printable, so does a number that would not
    print back (format_fraction's error), its numerator or denominator past
    the integer digit limit. A boolean or another type raises TypeError."""
    if isinstance(value, str):
        if len(value) <= _LEAST_LIMIT:
            # digits with an optional "-" and one "." or "/" inside, the form
            # of most documents: no regular expression, and no limit to check
            body = value[1:] if value[:1] == "-" else value
            whole, point, part = body.partition(".")
            if whole.isdecimal() and (part.isdecimal() or not point):
                n = int(whole + part)
                return (n if body is value else -n), 10 ** len(part)
            p, _, q = body.partition("/")
            if p.isdecimal() and q.isdecimal() and (d := int(q)):
                n = int(p)
                return (n if body is value else -n), d
        n, d = _read_text(value, value)
    elif isinstance(value, Literal):
        n, d = _read_text(value.text, value)
    elif isinstance(value, bool):
        raise TypeError("boolean is not a number")
    elif isinstance(value, int):
        n, d = value, 1
    elif isinstance(value, Fraction):
        n, d = value.numerator, value.denominator
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"not a finite number: {echo(value)}")
        n, d = value.as_integer_ratio()
    elif isinstance(value, Decimal):
        if not value.is_finite():
            raise ValueError(f"not a finite number: {echo(value)}")
        text = str(value)
        n, d = _read_text(text, text)
    else:
        raise TypeError(f"cannot interpret {type(value).__name__} as a number")
    # 2**(3 * limit) < 10**limit: a number of no more bits prints
    if printable and max(n.bit_length(), d.bit_length()) > 3 * digit_limit():
        format_fraction(Fraction(n, d))  # raises when the number does not print
    return n, d


def _read_text(text: str, shown) -> tuple:
    """read on text; a message echoes shown, the value as given."""
    text = text.strip()
    m = _DECIMAL.fullmatch(text.replace("_", ""))
    if m is not None:
        sign, whole, part, exp_sign, exp = m.groups()
        part = part or ""
        e = -len(part)
        if exp:
            e += -_digits(exp) if exp_sign == "-" else _digits(exp)
        limit = digit_limit()
        if abs(e) > limit:
            raise ValueError(f"exponent out of range (over {limit} digits): {echo(shown)}")
        n = _digits(whole + part)
        if sign == "-":
            n = -n
        return (n * 10**e, 1) if e >= 0 else (n, 10**-e)
    m = _RATIO.fullmatch(text)
    if m is not None:
        sign, p, q = m.groups()
        n, d = _digits(p.replace("_", "")), _digits(q.replace("_", ""))
        if d:
            return (-n if sign == "-" else n), d
    elif _NON_FINITE.fullmatch(text.replace("_", "")):
        raise ValueError(f"not a finite number: {echo(shown)}")
    raise ValueError(f"not a number: {echo(shown)}")


def _digits(digits: str) -> int:
    """int(digits) for a string of decimal digits of any length: past the
    integer digit limit int() refuses, in halves."""
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        half = len(digits) // 2
        return _digits(digits[:-half]) * 10**half + _digits(digits[-half:])


def cut(text: str, chars: int = ECHO_CHARS) -> str:
    """text for a message, cut to chars characters so that no message grows
    with the input it names."""
    return text if len(text) <= chars else text[: chars - 3] + "..."


def echo(value) -> str:
    """repr(value) for a message, cut to ECHO_CHARS characters."""
    return cut(repr(value))


def refuse_surrogate_pairs(text: str, what: str) -> None:
    """Raise SurrogatePairError naming what when text holds a surrogate
    pair. Callers test text.isascii() first, which no such text passes."""
    if _SURROGATE_PAIR.search(text):
        raise SurrogatePairError(
            f"{what} {echo(text)} holds a surrogate pair, which JSON reads back as one character"
        )


def common_scale(values: Iterable[Fraction]) -> Optional[int]:
    """The least d that makes every value times d an integer, or None when
    d needs more than MAX_SCALE_BITS bits."""
    return lcm_scale(v.denominator for v in values)


def lcm_scale(denominators: Iterable[int]) -> Optional[int]:
    """The lcm of denominators, or None when it needs more than
    MAX_SCALE_BITS bits."""
    d = 1
    for q in set(denominators):
        d = math.lcm(d, q)
        if d.bit_length() > MAX_SCALE_BITS:
            return None
    return d


def scaled(x: Fraction, d: Optional[int]):
    """Sort key for x under a common_scale d: the integer x*d, which orders
    and hashes like x without Fraction arithmetic, or x itself when d is
    None."""
    return x if d is None else x.numerator * (d // x.denominator)


def unscaled(k, d: Optional[int]) -> Fraction:
    """The Fraction a key under the common_scale d stands for: k/d, or k
    itself when d is None (as a Fraction: a folded cell bound may be int 0)."""
    return as_fraction(k) if d is None else Fraction(k, d)


def meet_scales(da: Optional[int], db: Optional[int]) -> Optional[int]:
    """The one scale that keys under da and keys under db meet on: their
    lcm, or None, keys being the Fractions themselves, when either is None
    or the lcm passes MAX_SCALE_BITS bits."""
    d = None if da is None or db is None else math.lcm(da, db)
    return None if d is None or d.bit_length() > MAX_SCALE_BITS else d


def key_factor(scale: Optional[int], d: Optional[int]):
    """What a key under scale is multiplied by to become the key of the
    same number under d, a multiple of scale or None (see meet_scales):
    the integer d // scale, or 1/scale, which makes it the Fraction
    itself; 1 when the two scales agree."""
    if scale == d or scale is None:
        return 1
    return Fraction(1, scale) if d is None else d // scale


def merge_spans(spans: Iterable[tuple]) -> tuple:
    """Sort (lo, hi) pairs and merge those that overlap or touch. The
    endpoints may be Fractions or the keys of one common_scale."""
    spans = sorted(spans)
    if len(spans) < 2:
        return tuple(spans)
    merged = [spans[0]]
    for lo, hi in spans[1:]:
        if lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return tuple(merged)


def covers(outer: Sequence[tuple], inner: Sequence[tuple]) -> bool:
    """Whether each span of inner lies in one span of outer, both as merge_spans
    returns them, in one walk: only the first outer span ending at or past a
    span's lo can hold it. Endpoints are Fractions or keys of one scale."""
    i, n = 0, len(outer)
    for lo, hi in inner:
        while i < n and outer[i][1] < lo:
            i += 1
        if i == n or outer[i][0] > lo or outer[i][1] < hi:
            return False
    return True


def meets(a: Sequence[tuple], b: Sequence[tuple]) -> bool:
    """Whether a span of a and a span of b, both as merge_spans returns them,
    share a point, spans that touch at an end included. Two spans of one set
    never touch, so merging both sets joins spans exactly when one of a
    meets one of b. Endpoints are Fractions or keys of one scale."""
    return len(merge_spans((*a, *b))) < len(a) + len(b)


def key_writer(scale: Optional[int]) -> Callable[[Key], str]:
    """The writer of exact numbers: writes key k under scale (see scaled)
    as k/scale's exact decimal when it terminates, else p/q. Under a scale
    dividing 10**P that is k * (10**P // scale), the point P places in and
    trailing zeros dropped; under another, a multiple of the scale's factor
    prime to 10 is a decimal at the scale that factor leaves. A decimal past
    digit_limit() places or str()'s digits is retried at the scale k/scale
    reduces to, else p/q; ValueError names the limit when p/q does not fit
    either. Under a None scale (past MAX_SCALE_BITS) keys are the numbers."""
    if scale is None:
        return format_fraction
    twos = (scale & -scale).bit_length() - 1
    odd, fives = scale >> twos, 0
    while odd % 5 == 0:
        odd //= 5
        fives += 1
    if odd != 1:
        decimal_part = key_writer(scale // odd)

        def ratio(k: int) -> str:
            if k % odd == 0:
                return decimal_part(k // odd)
            return _p_over_q(k, scale)

        return ratio
    places = max(twos, fives)
    if places > digit_limit():
        return lambda k: _past_decimal(k, scale)
    factor = 10**places // scale

    def decimal(k: int) -> str:
        try:
            digits = str(abs(k) * factor)
        except ValueError:  # more digits than str() converts
            return _past_decimal(k, scale)
        if places:
            digits = digits.rjust(places + 1, "0")
            point = digits[-places:].rstrip("0")
            digits = f"{digits[:-places]}.{point}" if point else digits[:-places]
        return "-" + digits if k < 0 else digits

    return decimal


def _past_decimal(k: int, scale: int) -> str:
    """k/scale when its decimal under scale is too long (see key_writer)."""
    g = math.gcd(k, scale)
    return key_writer(scale // g)(k // g) if g > 1 else _p_over_q(k, scale)


def _p_over_q(k: int, scale: int) -> str:
    g = math.gcd(k, scale)
    try:
        return f"{k // g}/{scale // g}"
    except ValueError:  # more digits than str() converts
        raise ValueError(
            f"exact number too long to print: over the integer digit limit of {digit_limit()} digits"
        ) from None


def format_fraction(q: Fraction) -> str:
    """Canonical text of q: key_writer at q's denominator, on its numerator."""
    return key_writer(q.denominator)(q.numerator)


def brief(q: Fraction) -> str:
    """q for a message: format_fraction(q) while its numerator and
    denominator fit BRIEF_BITS bits, else about three significant digits
    in e-notation, so that no message grows with, or fails on, a number
    past the integer digit limit."""
    num, den = q.numerator, q.denominator
    if max(num.bit_length(), den.bit_length()) <= BRIEF_BITS:
        return format_fraction(q)
    exponent = math.log10(abs(num)) - math.log10(den)
    e = math.floor(exponent)
    return f"{'-' if num < 0 else ''}~{10 ** (exponent - e):.3g}e{e}"


class Interval(NamedTuple("_Bounds", [("lo", Fraction), ("hi", Fraction)])):
    """Closed interval [lo, hi], the tuple (lo, hi); points (lo == hi) are
    allowed. Interval._make builds one from Fraction endpoints known to be
    in order, without coercing or comparing them again."""

    __slots__ = ()

    def __new__(cls, lo: Rational, hi: Rational):
        lo, hi = as_fraction(lo), as_fraction(hi)
        if lo > hi:
            raise ValueError(f"malformed interval: lo {brief(lo)} > hi {brief(hi)}")
        return super().__new__(cls, lo, hi)

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: Rational) -> bool:
        return self.lo <= as_fraction(x) <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __str__(self) -> str:
        return f"[{format_fraction(self.lo)},{format_fraction(self.hi)}]"


@dataclass(frozen=True, init=False)
class IntervalUnion:
    """Finite union of disjoint closed intervals, kept in canonical form.

    Canonical means: parts sorted by position, overlapping or touching
    parts merged. The empty union stands for the empty set.
    """

    parts: tuple

    def __init__(self, parts: Iterable[Interval] = ()):
        object.__setattr__(self, "parts", tuple(map(Interval._make, merge_spans(parts))))

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[Rational]]) -> "IntervalUnion":
        return cls(tuple(Interval(lo, hi) for lo, hi in pairs))

    @classmethod
    def _from_merged(cls, pairs: Iterable[tuple]) -> "IntervalUnion":
        """The union of (lo, hi) Fraction pairs already as merge_spans
        returns them, built without sorting or merging them again."""
        u = object.__new__(cls)
        object.__setattr__(u, "parts", tuple(map(Interval._make, pairs)))
        return u

    @property
    def is_empty(self) -> bool:
        return not self.parts

    @property
    def length(self) -> Fraction:
        return sum((p.length for p in self.parts), ZERO)

    @property
    def hull(self) -> Interval:
        if self.is_empty:
            raise ValueError("empty union has no hull")
        return Interval(self.parts[0].lo, self.parts[-1].hi)

    def contains_point(self, x: Rational) -> bool:
        x = as_fraction(x)
        return any(p.lo <= x <= p.hi for p in self.parts)

    def __contains__(self, x) -> bool:
        return self.contains_point(x)

    def issubset(self, other) -> bool:
        return not self.parts or covers(_parts(other), self.parts)

    def issuperset(self, other) -> bool:
        return other.issubset(self)

    def intersects(self, other) -> bool:
        return bool(self.parts) and meets(self.parts, _parts(other))

    def union(self, other):
        if self.is_empty:
            return other
        return IntervalUnion(self.parts + _parts(other))

    def intersection(self, other) -> "IntervalUnion":
        pieces = [
            Interval(max(p.lo, q.lo), min(p.hi, q.hi))
            for p in self.parts
            for q in _parts(other)
            if p.intersects(q)
        ]
        return IntervalUnion(tuple(pieces))

    def negated(self) -> "IntervalUnion":
        """Pointwise negation {-x : x in self}."""
        return IntervalUnion(tuple(Interval(-p.hi, -p.lo) for p in self.parts))

    def part_keys(self, scale: Optional[int] = None) -> tuple:
        """The (lo, hi) keys of the parts under a common_scale of the
        endpoints (see scaled); () for the empty set."""
        return tuple((scaled(p.lo, scale), scaled(p.hi, scale)) for p in self.parts)

    def __str__(self) -> str:
        if self.is_empty:
            return "[]"
        return ",".join(str(p) for p in self.parts)


def _parts(other) -> tuple:
    """The parts of the other operand of a focal method. A label set there
    raises, as labels and numbers do not mix; the methods ask only once they
    hold a part of their own, so the empty union combines with either kind."""
    if not isinstance(other, IntervalUnion):
        raise TypeError(MIXED_KINDS)
    return other.parts


EMPTY = IntervalUnion()


def iu(*pairs: Sequence[Rational]) -> IntervalUnion:
    """Shorthand builder: iu((1,5)) or iu([1,2],[4,5]); iu() is empty."""
    return IntervalUnion.from_pairs(pairs)
