"""Exact dyadic rationals k / 2**e, and their exact decimal rendering.

Every probability attached to a fair coin is dyadic, and this type holds
one in the canonical form where the numerator is odd (or zero) whenever
the exponent can still be reduced, so equal values always have equal
field tuples.  Addition, subtraction and comparison are exact, with no
floating point anywhere: they are fractions.Fraction arithmetic on the
two values, taken only with an int or another dyadic, and a sum or
difference comes back in canonical form.

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
import operator
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


def _exact(op):
    """Apply the Fraction operator op to the operands' exact values.

    The other operand must be an int or a DyadicRational; anything
    else is NotImplemented, because reading a sum with a Fraction
    such as 1/3 back as k / 2**e would silently change its value.
    Sums and differences come back as dyadics, comparisons as bools.
    """

    def method(self, other):
        if isinstance(other, DyadicRational):
            other = other.as_fraction()
        elif not isinstance(other, int):
            return NotImplemented
        result = op(self.as_fraction(), other)
        if isinstance(result, Fraction):
            return DyadicRational(result.numerator, result.denominator.bit_length() - 1)
        return result

    return method


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

    # -- arithmetic and comparison ------------------------------------

    __add__ = __radd__ = _exact(operator.add)
    __sub__ = _exact(operator.sub)
    __rsub__ = _exact(lambda a, b: b - a)
    __eq__ = _exact(operator.eq)
    __lt__ = _exact(operator.lt)
    __le__ = _exact(operator.le)
    __gt__ = _exact(operator.gt)
    __ge__ = _exact(operator.ge)

    def __neg__(self):
        return DyadicRational(-self.numerator, self.exponent)

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
