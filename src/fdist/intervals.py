"""Closed intervals and canonical finite unions of them.

All arithmetic is exact: endpoints and masses are `fractions.Fraction`.
Floats convert by their binary value (which is exact for the dyadic data
these operations are normally fed), strings by decimal or `p/q` syntax.
"""

import math
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

Rational = Union[int, float, str, Fraction, Decimal]

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

# Input echoed in a message is cut to this many characters (see echo).
ECHO_CHARS = 40


def as_fraction(value: Rational) -> Fraction:
    """Convert to an exact Fraction. Accepts "1/16", "0.0625", floats, ints.
    Infinities and NaNs, whether floats, Decimals or strings, raise
    ValueError, and so do decimal exponents past the interpreter's integer
    digit limit (sys.get_int_max_str_digits()), which would expand to
    unbounded integers."""
    if isinstance(value, bool):
        raise TypeError("boolean is not a number")
    if isinstance(value, Fraction):
        return value
    number = value
    if isinstance(value, str):
        try:
            number = Decimal(value)
        except InvalidOperation:
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"not a number: {echo(value)}") from None
    if isinstance(number, Decimal) and number.is_finite():
        limit = sys.get_int_max_str_digits()
        if limit and abs(number.as_tuple().exponent) > limit:
            raise ValueError(f"exponent out of range (over {limit} digits): {echo(str(value))}")
    if isinstance(number, (int, float, Decimal)):
        try:
            return Fraction(number)
        except (OverflowError, ValueError):
            raise ValueError(f"not a finite number: {echo(value)}") from None
    raise TypeError(f"cannot interpret {type(value).__name__} as a number")


def cut(text: str, chars: int = ECHO_CHARS) -> str:
    """text for a message, cut to chars characters so that no message grows
    with the input it names."""
    return text if len(text) <= chars else text[: chars - 3] + "..."


def echo(value) -> str:
    """repr(value) for a message, cut to ECHO_CHARS characters."""
    return cut(repr(value))


def common_scale(values: Iterable[Fraction]) -> Optional[int]:
    """The least d that makes every value times d an integer, or None when
    d needs more than MAX_SCALE_BITS bits."""
    d = 1
    for q in {v.denominator for v in values}:
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


def format_fraction(q: Fraction) -> str:
    """Canonical text form: exact decimal when it terminates, else p/q.

    A terminating decimal is written as p/q instead when it would need
    more digits, or more places after the point, than the interpreter's
    integer digit limit (sys.get_int_max_str_digits()), which str() and
    as_fraction enforce. When p/q does not fit either, ValueError names
    the limit."""
    num, den = q.numerator, q.denominator
    try:
        if den == 1:
            return str(num)
        twos = (den & -den).bit_length() - 1
        odd, fives = den >> twos, 0
        while odd % 5 == 0:
            odd //= 5
            fives += 1
        if odd == 1:
            places = max(twos, fives)
            limit = sys.get_int_max_str_digits()
            if places <= limit or not limit:
                try:
                    text = str(abs(num) * 10**places // den).rjust(places + 1, "0")
                except ValueError:  # more digits than str() converts: p/q below
                    pass
                else:
                    sign = "-" if num < 0 else ""
                    return f"{sign}{text[:-places]}.{text[-places:]}"
        return f"{num}/{den}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(
            f"exact number too long to print: over the integer digit limit of {limit} digits"
        ) from None


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


def _canonical(parts: Iterable[Interval]) -> tuple:
    """Sort and merge overlapping or touching intervals."""
    parts = tuple(parts)
    if len(parts) < 2:
        return parts
    return tuple(map(Interval._make, merge_spans(parts)))


@dataclass(frozen=True, init=False)
class IntervalUnion:
    """Finite union of disjoint closed intervals, kept in canonical form.

    Canonical means: parts sorted by position, overlapping or touching
    parts merged. The empty union stands for the empty set.
    """

    parts: tuple

    def __init__(self, parts: Iterable[Interval] = ()):
        object.__setattr__(self, "parts", _canonical(parts))

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
        # A closed part cannot straddle a gap of the other union, so each
        # part must sit inside a single part of the other.
        return all(
            any(q.lo <= p.lo and p.hi <= q.hi for q in _parts(other))
            for p in self.parts
        )

    def issuperset(self, other) -> bool:
        return other.issubset(self)

    def intersects(self, other) -> bool:
        return any(p.intersects(q) for p in self.parts for q in _parts(other))

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
