"""Grouping every pattern of a given length by its exact waiting time.

Complementary patterns (heads and tails swapped) share a waiting time, so
by default only the canonical representatives starting with 1 are listed;
the 0-leading half of each length is implied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .pattern import expected_waiting_time, patterns_of_length

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
    ascending as binary numbers.
    """
    rows: list[TableRow] = []
    for length in lengths:
        groups: dict[int, list[str]] = {}
        for p in patterns_of_length(length, canonical=not include_complements):
            groups.setdefault(expected_waiting_time(p), []).append(str(p))
        for average in sorted(groups):
            # Enumeration order is already ascending as binary numbers.
            rows.append(TableRow(length, average, tuple(groups[average])))
    return rows
