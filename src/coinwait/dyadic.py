"""Exact dyadic rationals k / 2**e, and their exact text renderings.

Every probability attached to a fair coin is dyadic, and this type holds
one in the canonical form where the numerator is odd (or zero) whenever
the exponent can still be reduced, so equal values always have equal
field tuples.  Addition, subtraction and comparison are exact, with no
floating point anywhere: they are fractions.Fraction arithmetic on the
two values, taken only with an int or another dyadic, and a sum or
difference comes back in canonical form.

This module owns the two rules that write a dyadic out, and both take a
bare numerator and exponent, so a caller need not build a DyadicRational
per value.  fraction_text reduces k / 2**e to lowest terms by the 2-adic
valuation of k and writes "k/2**e" with str(), which Python computes in
quadratic time for a big int and refuses past its int_max_str_digits
limit (the CLI lifts that limit while it writes).  decimal_text writes
the terminating decimal expansion k / 2**e = k * 5**e / 10**e from the
exact k * 5**e in base 10: shift the point e places, drop the trailing
zeros and print it in plain notation, with no str() of a big int.  All of
that runs in EXACT_DECIMAL, a decimal context with unbounded precision and
exponent range in which Inexact and Rounded are trapped, so a step that
would lose a digit raises instead of rounding.
"""

from __future__ import annotations

import decimal
import operator
from decimal import Decimal
from fractions import Fraction

__all__ = ["DyadicRational"]

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


def _lowest_terms(numerator: int, exponent: int) -> tuple[int, int]:
    """numerator / 2**exponent with an odd numerator, or (0, 0), where possible."""
    if numerator == 0:
        return 0, 0
    # numerator & -numerator isolates the lowest set bit, also when negative.
    shift = min((numerator & -numerator).bit_length() - 1, exponent)
    return numerator >> shift, exponent - shift


def fraction_text(numerator: int, exponent: int) -> str:
    """Write numerator / 2**exponent as 'k/2**e' in lowest terms, or 'k'.

    >>> fraction_text(12, 5), fraction_text(-8, 3), fraction_text(0, 7)
    ('3/8', '-1', '0')
    """
    k, e = _lowest_terms(numerator, exponent)
    return f"{k}/{1 << e}" if e else str(k)


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
        num, exp = _lowest_terms(int(numerator), int(exponent))
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
        return fraction_text(self.numerator, self.exponent)

    def decimal_str(self) -> str:
        """Exact terminating decimal expansion (dyadics always have one)."""
        five_power = EXACT_DECIMAL.power(5, self.exponent)
        scaled = EXACT_DECIMAL.multiply(self.numerator, five_power)
        return decimal_text(scaled, self.exponent)

    def __str__(self) -> str:
        return self.fraction_str()

    def __repr__(self) -> str:
        return f"DyadicRational({self.numerator}, {self.exponent})"
