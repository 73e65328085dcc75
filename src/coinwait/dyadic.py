"""Exact dyadic rationals k / 2**e, and their exact decimal rendering.

Every probability attached to a fair coin is dyadic, so this tiny type is
all the arithmetic the counting engine needs: exact addition, subtraction
and comparison, with no floating point anywhere.  Values are kept in the
canonical form where the numerator is odd (or zero) whenever the exponent
can still be reduced, so equal values always have equal field tuples.

A dyadic always has a terminating decimal expansion, k / 2**e =
k * 5**e / 10**e, and this module owns the one rule that writes it out:
form the exact k * 5**e in base 10, shift the point e places, drop the
trailing zeros and print it in plain notation (decimal_text).  All of it
runs in EXACT_DECIMAL, a decimal context with unbounded precision and
exponent range in which Inexact and Rounded are trapped, so a step that
would lose a digit raises instead of rounding.  Rendering this way never
converts a big int to a string, which Python does in quadratic time and
refuses past its int_max_str_digits limit.
"""

from __future__ import annotations

import decimal
from decimal import Decimal
from fractions import Fraction

__all__ = ["DyadicRational", "EXACT_DECIMAL", "decimal_text"]

EXACT_DECIMAL = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[
        decimal.InvalidOperation,
        decimal.DivisionByZero,
        decimal.Overflow,
        decimal.Inexact,
        decimal.Rounded,
    ],
)


def decimal_text(scaled: Decimal, exponent: int) -> str:
    """Write scaled / 10**exponent exactly, with no trailing zeros.

    For the dyadic k / 2**e, pass scaled = k * 5**e and exponent = e; the
    text is then the dyadic's full decimal expansion ("0.3125", "41", "0"),
    never in exponent notation.
    """
    shifted = scaled.scaleb(-exponent, EXACT_DECIMAL)
    return format(shifted.normalize(EXACT_DECIMAL), "f")


class DyadicRational:
    """Immutable exact value numerator / 2**exponent."""

    __slots__ = ("numerator", "exponent")

    def __init__(self, numerator: int, exponent: int = 0):
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        num = int(numerator)
        exp = int(exponent)
        if num == 0:
            exp = 0
        else:
            # num & -num isolates the lowest set bit, also for negative num.
            shift = min((num & -num).bit_length() - 1, exp)
            num >>= shift
            exp -= shift
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "exponent", exp)

    def __setattr__(self, name, value):
        raise AttributeError("DyadicRational is immutable")

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(value) -> "DyadicRational":
        if isinstance(value, DyadicRational):
            return value
        if isinstance(value, int):
            return DyadicRational(value, 0)
        return NotImplemented

    def _aligned(self, other: "DyadicRational") -> tuple[int, int, int]:
        e = max(self.exponent, other.exponent)
        a = self.numerator << (e - self.exponent)
        b = other.numerator << (e - other.exponent)
        return a, b, e

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, e = self._aligned(other)
        return DyadicRational(a + b, e)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, e = self._aligned(other)
        return DyadicRational(a - b, e)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return DyadicRational(-self.numerator, self.exponent)

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.numerator, self.exponent) == (other.numerator, other.exponent)

    def __lt__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, _ = self._aligned(other)
        return a < b

    def __le__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, _ = self._aligned(other)
        return a <= b

    def __gt__(self, other):
        result = self.__le__(other)
        return NotImplemented if result is NotImplemented else not result

    def __ge__(self, other):
        result = self.__lt__(other)
        return NotImplemented if result is NotImplemented else not result

    def __hash__(self):
        # Matches hash(int) for integer-valued dyadics, keeping == and hash
        # consistent when ints are mixed in.
        return hash(self.as_fraction())

    def __bool__(self):
        return self.numerator != 0

    # -- conversions --------------------------------------------------

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.exponent)

    def fraction_str(self) -> str:
        """Render as 'k/2**e' in lowest terms, or plain 'k' for integers."""
        if self.exponent == 0:
            return str(self.numerator)
        return f"{self.numerator}/{1 << self.exponent}"

    def decimal_str(self) -> str:
        """Exact terminating decimal expansion (dyadics always have one)."""
        five_power = EXACT_DECIMAL.power(5, self.exponent)
        scaled = EXACT_DECIMAL.multiply(self.numerator, five_power)
        return decimal_text(scaled, self.exponent)

    def __str__(self) -> str:
        return self.fraction_str()

    def __repr__(self) -> str:
        return f"DyadicRational({self.numerator}, {self.exponent})"
