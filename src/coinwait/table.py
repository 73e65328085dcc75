"""Grouping every pattern of a given length by its exact waiting time.

Complementary patterns (heads and tails swapped) share a waiting time, so
by default only the canonical representatives starting with 1 are listed;
the 0-leading half of each length is implied.

Each pattern of length L is taken as its integer code v, the bits read as
a binary number.  Its average is 2**L plus 2**j for each proper overlap j
(1 <= j < L: the first j tosses equal the last j), the overlap rule of
pattern.expected_waiting_time.  Overlap j is the same thing as period
p = L - j: toss i equals toss i + p all along the pattern, so the pattern
is its first p tosses u repeated and cut to length L.  Its code is

    v = (u * rep) >> drop,  rep = sum of 2**(k*p) over k < ceil(L/p),
                            drop = p * ceil(L/p) - L,

and distinct u give distinct v.  So instead of testing every code for
every overlap, the table lists, for each period p in 1..L-1, the 2**p
codes that have it (the 2**(p-1) leading with 1 when canonical) and adds
2**(L-p) to each: one add per period a code has, 2**(L-1) - 1 adds per
length in all (2**L - 2 with complements), where testing every overlap
takes L - 1 tests per code.  tests/test_table.py checks every row of
lengths 1..20, the ceiling, against the overlap rule itself
(tests/_oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import TooLargeError
from .pattern import waiting_time_bounds

__all__ = ["TableRow", "waiting_time_table"]

# The longest length listed.  A length-L table holds a counter and a string
# per listed pattern, about 41 B each at peak: measured with tracemalloc,
# 10 MB at 18, 42 MB and 0.3 s CPU at 20 (84 MB and 0.6 s with complements),
# then twice that per length (172 MB and 1.3 s at 22).  20 keeps every call
# under about 100 MB and a second; the 32-bit counters would fail past 31.
LENGTH_CEILING = 20


@dataclass(frozen=True, slots=True)
class TableRow:
    """All patterns of one length sharing one exact average."""

    length: int
    average: int
    patterns: tuple[str, ...]


def waiting_time_table(
    lengths: Iterable[int], *, include_complements: bool = False
) -> list[TableRow]:
    """Build rows grouping patterns by exact expected waiting time.

    For each length, in the order given, the canonical patterns (leading
    bit 1, or all 2**L of them with include_complements) are grouped by
    their average; each length's rows come out by ascending average,
    patterns within a row ascending as binary numbers.  Raises
    InvalidLengthError for a length below 1 and TooLargeError for one above
    LENGTH_CEILING, before any row is built.
    """
    from array import array  # not on the CLI's import path

    lengths = list(lengths)  # every length is checked before any row is built
    for length in lengths:
        waiting_time_bounds(length)  # InvalidLengthError below 1
        if length > LENGTH_CEILING:
            raise TooLargeError(
                f"length {length} exceeds the table ceiling {LENGTH_CEILING}"
            )
    rows: list[TableRow] = []
    for length in lengths:
        lowest, _ = waiting_time_bounds(length)  # 2**L, the full-length overlap
        first = 0 if include_complements else lowest >> 1  # the lowest code listed
        averages = array("I", [lowest]) * (lowest - first)  # code v at v - first
        for period in range(1, length):
            reps = -(-length // period)
            rep = ((1 << reps * period) - 1) // ((1 << period) - 1)
            drop = reps * period - length
            weight = 1 << (length - period)
            # x = u * rep - (first << drop) for each listed first-p-toss code u,
            # so x >> drop is v - first
            base = first << drop
            lowest_u = first >> (length - period)
            for x in range(lowest_u * rep - base, (rep << period) - base, rep):
                averages[x >> drop] += weight
        # Each text is a head of top bits and a tail of half bits, each half
        # formatted once with a marker bit above it that [1:] drops (so a
        # 0-bit tail is ""); codes ascend, so each row's patterns do.
        half = length // 2
        top = length - half
        heads = [
            format(h, "b")[1:] for h in range((first >> half) + (1 << top), 2 << top)
        ]
        tails = [format(t, "b")[1:] for t in range(1 << half, 2 << half)]
        groups: dict[int, list[str]] = {}
        pending = iter(averages)  # the codes' averages, ascending by code
        for head in heads:
            # zip stops on the last tail before it draws the next head's average
            for tail, average in zip(tails, pending):
                groups.setdefault(average, []).append(head + tail)
        for average in sorted(groups):
            rows.append(TableRow(length, average, tuple(groups.pop(average))))
    return rows
