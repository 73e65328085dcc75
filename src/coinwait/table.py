"""Grouping every pattern of a given length by its exact waiting time.

Complementary patterns (heads and tails swapped) share a waiting time, so
by default only the canonical representatives starting with 1 are listed;
the 0-leading half of each length is implied.

Each pattern of length L is taken as its integer code v, the bits read as
a binary number.  Its length-j prefix is v >> (L - j) and its length-j
suffix is v & (2**j - 1), so its average is

    2**L + sum of 2**j over 1 <= j < L with v >> (L - j) == v & (2**j - 1),

the overlap rule of pattern.expected_waiting_time with no Pattern built.
tests/test_table.py checks it against correlation_set for every pattern of
lengths 1..14.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .pattern import waiting_time_bounds

__all__ = ["TableRow", "waiting_time_table"]


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

    For each length the canonical patterns (leading bit 1, or all 2**L of
    them with include_complements) are grouped by their average; rows come
    out sorted by length then ascending average, patterns within a row
    ascending as binary numbers.  Raises InvalidLengthError for a length
    below 1.
    """
    rows: list[TableRow] = []
    for length in lengths:
        lowest, _ = waiting_time_bounds(length)  # 2**L, the full-length overlap
        # (shift, mask, weight) of each proper overlap length j
        overlaps = [(length - j, (1 << j) - 1, 1 << j) for j in range(1, length)]
        spec = f"0{length}b"
        groups: dict[int, list[str]] = {}
        for v in range(0 if include_complements else lowest >> 1, lowest):
            average = lowest
            for shift, mask, weight in overlaps:
                if v >> shift == v & mask:
                    average += weight
            groups.setdefault(average, []).append(format(v, spec))
        for average in sorted(groups):
            # Codes ascend, so each row's patterns already do.
            rows.append(TableRow(length, average, tuple(groups[average])))
    return rows
