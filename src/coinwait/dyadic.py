"""Exact dyadic rationals k / 2**e.

Every probability attached to a fair coin is dyadic, so this tiny type is
all the arithmetic the counting engine needs: exact addition, subtraction
and comparison, with no floating point anywhere.  Values are kept in the
canonical form where the numerator is odd (or zero) whenever the exponent
can still be reduced, so equal values always have equal field tuples.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["DyadicRational"]


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
        if self.exponent == 0:
            return str(self.numerator)
        # k / 2**e == k * 5**e / 10**e: shift the decimal point e places.
        digits = str(abs(self.numerator) * 5 ** self.exponent)
        digits = digits.rjust(self.exponent + 1, "0")
        sign = "-" if self.numerator < 0 else ""
        return f"{sign}{digits[:-self.exponent]}.{digits[-self.exponent:]}"

    def __str__(self) -> str:
        return self.fraction_str()

    def __repr__(self) -> str:
        return f"DyadicRational({self.numerator}, {self.exponent})"
