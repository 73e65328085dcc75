"""Coin-toss patterns, their self-overlap structure, and exact waiting times.

A pattern is a fixed string of heads (1) and tails (0).  A fair coin is
tossed until the pattern first appears as the trailing block of the toss
stream.  The expected number of tosses admits an exact closed form driven
entirely by the pattern's self-overlaps: writing c_j = 1 when the length-j
prefix of the pattern equals its length-j suffix (and 0 otherwise),

    expected tosses = sum of 2**j over all j with c_j = 1.

The full-length overlap c_m is always 1, so the result is a sum of distinct
positive powers of two: an even integer between 2**m and 2**(m+1) - 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import EmptyPatternError, InvalidLengthError, InvalidSymbolError

__all__ = [
    "Pattern",
    "CorrelationSet",
    "WaitingTimeReport",
    "parse_pattern",
    "patterns_of_length",
    "complement",
    "correlation_set",
    "expected_waiting_time",
    "expected_profit",
    "waiting_time_bounds",
    "waiting_time_report",
]

# Text symbols accepted by parse_pattern, per alphabet.
_BIT_ALPHABET = {"0": 0, "1": 1}
_COIN_ALPHABET = {"t": 0, "T": 0, "h": 1, "H": 1}


@dataclass(frozen=True, slots=True)
class Pattern:
    """An immutable nonempty sequence of coin outcomes (1 = head, 0 = tail)."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.bits, tuple):
            object.__setattr__(self, "bits", tuple(self.bits))
        if len(self.bits) == 0:
            raise EmptyPatternError("a pattern needs at least one toss")
        for b in self.bits:
            if b not in (0, 1):
                raise ValueError(f"pattern bits must be 0 or 1, got {b!r}")

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)

    def __getitem__(self, i):
        return self.bits[i]

    def __str__(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    def heads_tails(self) -> str:
        """Render as H/T, e.g. Pattern((1, 0, 1)) -> 'HTH'."""
        return "".join("H" if b else "T" for b in self.bits)


def parse_pattern(text: str) -> Pattern:
    """Parse pattern text written either as 0/1 or as T/H (not mixed).

    Surrounding whitespace is trimmed.  0 and T/t mean tails, 1 and H/h
    mean heads.  Raises EmptyPatternError for blank input and
    InvalidSymbolError (carrying the offending index in the trimmed text)
    for anything outside the two alphabets or for a mix of them.
    """
    trimmed = text.strip()
    if not trimmed:
        raise EmptyPatternError("empty pattern text")
    alphabet: dict[str, int] | None = None
    bits = []
    for i, ch in enumerate(trimmed):
        if alphabet is None:
            if ch in _BIT_ALPHABET:
                alphabet = _BIT_ALPHABET
            elif ch in _COIN_ALPHABET:
                alphabet = _COIN_ALPHABET
            else:
                raise InvalidSymbolError(ch, i)
        if ch not in alphabet:
            raise InvalidSymbolError(ch, i)
        bits.append(alphabet[ch])
    return Pattern(tuple(bits))


def patterns_of_length(length: int, canonical: bool = True) -> Iterator[Pattern]:
    """Yield the patterns of one length in ascending binary order.

    With canonical set, only the half starting with 1 is yielded; each
    0-leading pattern is the complement of one of them and shares its
    waiting-time behaviour.  Otherwise all 2**length patterns are yielded.
    Raises InvalidLengthError for a length below 1.
    """
    if length < 1:
        raise InvalidLengthError(f"pattern length must be >= 1, got {length}")
    start = 1 << (length - 1) if canonical else 0
    for value in range(start, 1 << length):
        yield Pattern(tuple((value >> (length - 1 - i)) & 1 for i in range(length)))


def complement(p: Pattern) -> Pattern:
    """Swap heads and tails.  Waiting-time behaviour is invariant under this."""
    return Pattern(tuple(1 - b for b in p.bits))


@dataclass(frozen=True, slots=True)
class CorrelationSet:
    """Self-overlap indicators c_1..c_m of a pattern.

    coefficients[j - 1] is 1 exactly when the length-j prefix of the
    pattern equals its length-j suffix.  The last coefficient is always 1.
    """

    coefficients: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.coefficients)

    def overlap_lengths(self) -> tuple[int, ...]:
        """The j with c_j = 1, ascending."""
        return tuple(j for j, c in enumerate(self.coefficients, start=1) if c)


def correlation_set(p: Pattern) -> CorrelationSet:
    """Compute the self-overlap indicators of a pattern in linear time.

    The j with c_j = 1 are the pattern's borders, which form a chain: m,
    then the longest proper border of the pattern, then that border's own
    longest proper border, down to 0.  The KMP failure function gives it.
    """
    bits = p.bits
    m = len(bits)
    # border[i] = length of the longest proper border of bits[:i + 1]
    border = [0] * m
    k = 0
    for i in range(1, m):
        while k and bits[i] != bits[k]:
            k = border[k - 1]
        if bits[i] == bits[k]:
            k += 1
        border[i] = k
    coeffs = [0] * m
    j = m
    while j:
        coeffs[j - 1] = 1
        j = border[j - 1]
    return CorrelationSet(tuple(coeffs))


def expected_waiting_time(p: Pattern) -> int:
    """Exact expected number of fair tosses before the pattern first appears.

    Equals the sum of 2**j over the pattern's self-overlap lengths j, hence
    always an even integer in [2**m, 2**(m+1) - 2].

    >>> expected_waiting_time(parse_pattern("11"))
    6
    >>> expected_waiting_time(parse_pattern("10101"))
    42
    """
    return sum(1 << j for j in correlation_set(p).overlap_lengths())


def expected_profit(p: Pattern, stake: int) -> int:
    """Expected net gain of a wager paying n units for an n-toss game.

    The player pays `stake` up front and receives one unit per toss made
    before the pattern completes, so the expectation is exact:
    expected_waiting_time(p) - stake.
    """
    if stake < 0:
        raise ValueError("stake must be nonnegative")
    return expected_waiting_time(p) - stake


def waiting_time_bounds(m: int) -> tuple[int, int]:
    """Sharp bounds (2**m, 2**(m+1) - 2) on the waiting time at length m.

    The lower bound is attained exactly by patterns whose only self-overlap
    is the trivial full-length one; the upper bound by the two constant
    patterns.
    """
    if m < 1:
        raise InvalidLengthError(f"pattern length must be >= 1, got {m}")
    return (1 << m, (1 << (m + 1)) - 2)


@dataclass(frozen=True, slots=True)
class WaitingTimeReport:
    """Everything known exactly about one pattern's waiting time."""

    pattern: Pattern
    correlation: CorrelationSet
    expected_tosses: int
    lower_bound: int
    upper_bound: int
    stake: int | None = None
    expected_profit: int | None = None


def waiting_time_report(p: Pattern, stake: int | None = None) -> WaitingTimeReport:
    """Assemble the full exact report for one pattern, optionally with a wager."""
    corr = correlation_set(p)
    n_tosses = sum(1 << j for j in corr.overlap_lengths())
    lo, hi = waiting_time_bounds(len(p))
    profit = None if stake is None else expected_profit(p, stake)
    return WaitingTimeReport(
        pattern=p,
        correlation=corr,
        expected_tosses=n_tosses,
        lower_bound=lo,
        upper_bound=hi,
        stake=stake,
        expected_profit=profit,
    )
