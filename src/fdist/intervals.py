"""Closed intervals and canonical finite unions of them.

All arithmetic is exact: endpoints and masses are `fractions.Fraction`.
Floats convert by their binary value (which is exact for the dyadic data
these operations are normally fed), strings by decimal or `p/q` syntax.
"""

import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Union[int, float, str, Fraction, Decimal]

# Comparison slack for validating sums that may arrive as rounded decimals.
# Exact-fraction pipelines never need it.
DEFAULT_TOLERANCE = Fraction(1, 10**9)

ZERO = Fraction(0)
ONE = Fraction(1)


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
                raise ValueError(f"not a number: {value!r}") from None
    if isinstance(number, Decimal) and number.is_finite():
        limit = sys.get_int_max_str_digits()
        if limit and abs(number.as_tuple().exponent) > limit:
            raise ValueError(f"exponent out of range (over {limit} digits): {value!r}")
    if isinstance(number, (int, float, Decimal)):
        try:
            return Fraction(number)
        except (OverflowError, ValueError):
            raise ValueError(f"not a finite number: {value!r}") from None
    raise TypeError(f"cannot interpret {type(value).__name__} as a number")


def format_fraction(q: Fraction) -> str:
    """Canonical text form: exact decimal when it terminates, else p/q."""
    den = q.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{q.numerator}/{q.denominator}"
    digits = max(twos, fives)
    if digits == 0:
        return str(q.numerator)
    scaled = abs(q.numerator) * 10**digits // q.denominator
    text = str(scaled).rjust(digits + 1, "0")
    sign = "-" if q < 0 else ""
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


@dataclass(frozen=True, order=True)
class Interval:
    """Closed interval [lo, hi]. Degenerate points (lo == hi) are allowed."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_fraction(self.lo))
        object.__setattr__(self, "hi", as_fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"malformed interval: lo {self.lo} > hi {self.hi}")

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
    merged: list[Interval] = []
    for p in sorted(parts, key=lambda p: (p.lo, p.hi)):
        if merged and p.lo <= merged[-1].hi:
            if p.hi > merged[-1].hi:
                merged[-1] = Interval(merged[-1].lo, p.hi)
        else:
            merged.append(p)
    return tuple(merged)


@dataclass(frozen=True)
class IntervalUnion:
    """Finite union of disjoint closed intervals, kept in canonical form.

    Canonical means: parts sorted by position, overlapping or touching
    parts merged. The empty union stands for the empty set.
    """

    parts: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "parts", _canonical(self.parts))

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[Rational]]) -> "IntervalUnion":
        return cls(tuple(Interval(lo, hi) for lo, hi in pairs))

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

    def issubset(self, other: "IntervalUnion") -> bool:
        # A closed part cannot straddle a gap of the other union, so each
        # part must sit inside a single part of the other.
        return all(
            any(q.lo <= p.lo and p.hi <= q.hi for q in other.parts)
            for p in self.parts
        )

    def issuperset(self, other: "IntervalUnion") -> bool:
        return other.issubset(self)

    def intersects(self, other: "IntervalUnion") -> bool:
        return any(p.intersects(q) for p in self.parts for q in other.parts)

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion(self.parts + other.parts)

    def intersection(self, other: "IntervalUnion") -> "IntervalUnion":
        pieces = [
            Interval(max(p.lo, q.lo), min(p.hi, q.hi))
            for p in self.parts
            for q in other.parts
            if p.intersects(q)
        ]
        return IntervalUnion(tuple(pieces))

    def negated(self) -> "IntervalUnion":
        """Pointwise negation {-x : x in self}."""
        return IntervalUnion(tuple(Interval(-p.hi, -p.lo) for p in self.parts))

    def sort_key(self) -> tuple:
        return tuple((p.lo, p.hi) for p in self.parts)

    def __str__(self) -> str:
        if self.is_empty:
            return "[]"
        return ",".join(str(p) for p in self.parts)


EMPTY = IntervalUnion()


def iu(*pairs: Sequence[Rational]) -> IntervalUnion:
    """Shorthand builder: iu((1,5)) or iu([1,2],[4,5]); iu() is empty."""
    return IntervalUnion.from_pairs(pairs)
