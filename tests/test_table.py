"""Grouping of patterns by average, including the classic 2..6 table."""

import tracemalloc

import numpy as np
import pytest

from _oracles import operational_correlation, overlap_averages, overlap_table
from coinwait import (
    InvalidLengthError,
    TooLargeError,
    complement,
    expected_waiting_time,
    parse_pattern,
    patterns_of_length,
    waiting_time_table,
)
from coinwait.table import LENGTH_CEILING

# Every canonical pattern of lengths 2..6 with its exact average.  This is
# the classic reference table for the fair-coin waiting-time problem and is
# frozen here; any regrouping is a regression.
REFERENCE_TABLE = {
    2: {
        4: ["10"],
        6: ["11"],
    },
    3: {
        8: ["100", "110"],
        10: ["101"],
        14: ["111"],
    },
    4: {
        16: ["1000", "1100", "1110"],
        18: ["1001", "1011", "1101"],
        20: ["1010"],
        30: ["1111"],
    },
    5: {
        32: ["10000", "10100", "11000", "11010", "11100", "11110"],
        34: ["10001", "10011", "10111", "11001", "11101"],
        36: ["10010", "10110"],
        38: ["11011"],
        42: ["10101"],
        62: ["11111"],
    },
    6: {
        64: ["100000", "101000", "101100", "110000", "110010",
             "110100", "111000", "111010", "111100", "111110"],
        66: ["100001", "100011", "100101", "100111", "101001", "101011",
             "101111", "110001", "110101", "111001", "111101"],
        68: ["100010", "100110", "101110"],
        70: ["110011", "110111", "111011"],
        72: ["100100", "110110"],
        74: ["101101"],
        84: ["101010"],
        126: ["111111"],
    },
}


def test_reference_table_is_reproduced_exactly():
    rows = waiting_time_table(range(2, 7))
    got = {}
    for row in rows:
        got.setdefault(row.length, {})[row.average] = sorted(row.patterns)
    want = {
        length: {avg: sorted(ps) for avg, ps in groups.items()}
        for length, groups in REFERENCE_TABLE.items()
    }
    assert got == want


def test_reference_table_row_count_and_pattern_total():
    rows = waiting_time_table(range(2, 7))
    assert sum(len(r.patterns) for r in rows) == 62
    sixes = [r for r in rows if r.length == 6]
    assert [len(r.patterns) for r in sixes] == [10, 11, 3, 3, 2, 1, 1, 1]
    assert [r.average for r in sixes] == [64, 66, 68, 70, 72, 74, 84, 126]


def test_rows_are_sorted_and_patterns_ascend():
    rows = waiting_time_table([4])
    assert [r.average for r in rows] == sorted(r.average for r in rows)
    for row in rows:
        assert list(row.patterns) == sorted(row.patterns)


def test_averages_match_direct_computation():
    for row in waiting_time_table([5]):
        for text in row.patterns:
            assert expected_waiting_time(parse_pattern(text)) == row.average


def test_full_table_covers_complements():
    rows = waiting_time_table([4], include_complements=True)
    patterns = [p for row in rows for p in row.patterns]
    assert len(patterns) == 16
    averages = {}
    for row in rows:
        for p in row.patterns:
            averages[p] = row.average
    for text, avg in averages.items():
        assert averages[str(complement(parse_pattern(text)))] == avg


def test_canonical_table_only_lists_leading_ones():
    for row in waiting_time_table(range(2, 7)):
        assert all(p.startswith("1") for p in row.patterns)


def test_rejects_degenerate_length():
    with pytest.raises(InvalidLengthError):
        waiting_time_table([0])


def test_single_toss_table():
    rows = waiting_time_table([1])
    assert len(rows) == 1
    assert rows[0].average == 2
    assert rows[0].patterns == ("1",)


@pytest.mark.parametrize("include_complements", [False, True], ids=["canonical", "all"])
def test_every_average_is_the_overlap_sum_of_its_patterns(include_complements):
    # The table adds a weight per period of each code; here each average is
    # recomputed from the KMP correlation set, and up to length 10 from the
    # overlaps found by trying every completion (2**m joins per pattern, so
    # lengths 11..14 would add minutes).
    rows = waiting_time_table(range(1, 15), include_complements=include_complements)
    for length in range(1, 15):
        own = [row for row in rows if row.length == length]
        assert [row.average for row in own] == sorted({row.average for row in own})
        listed = [text for row in own for text in row.patterns]
        assert sorted(listed) == [
            str(p) for p in patterns_of_length(length, canonical=not include_complements)
        ]
        for row in own:
            assert list(row.patterns) == sorted(row.patterns)
            for text in row.patterns:
                assert expected_waiting_time(parse_pattern(text)) == row.average
                if length <= 10:
                    coeffs = operational_correlation(text)
                    assert sum(1 << j for j, c in enumerate(coeffs, 1) if c) == row.average


@pytest.mark.parametrize("include_complements", [False, True], ids=["canonical", "all"])
def test_every_row_to_length_16_follows_the_overlap_rule(include_complements):
    # The table adds one weight per period a code has; the reference tests
    # every overlap of every code and formats every code on its own.
    rows = waiting_time_table(range(1, 17), include_complements=include_complements)
    got = [(row.length, row.average, row.patterns) for row in rows]
    assert got == overlap_table(range(1, 17), include_complements)


@pytest.mark.parametrize("include_complements", [False, True], ids=["canonical", "all"])
@pytest.mark.parametrize("length", range(17, LENGTH_CEILING + 1))
def test_every_row_past_length_16_follows_the_overlap_rule(length, include_complements):
    # The same check as above, with the rule tested over numpy arrays of
    # codes: each row's patterns, read back as codes, must be the codes with
    # that average, ascending, and the rows must ascend by average.
    rows = waiting_time_table([length], include_complements=include_complements)
    averages = overlap_averages(length, include_complements)
    first = 0 if include_complements else 1 << (length - 1)
    text = "".join(text for row in rows for text in row.patterns).encode()
    bits = np.frombuffer(text, dtype=np.uint8).reshape(-1, length) - ord("0")
    codes = bits.astype(np.int64) @ (1 << np.arange(length - 1, -1, -1))
    row_averages = [row.average for row in rows]
    assert {row.length for row in rows} == {length}
    assert row_averages == sorted(set(row_averages))
    order = np.argsort(averages, kind="stable")  # by average, then code
    assert np.array_equal(codes, order + first)
    assert np.array_equal(
        np.repeat(row_averages, [len(row.patterns) for row in rows]), averages[order]
    )


def test_lengths_are_taken_in_the_order_given_with_repeats():
    rows = waiting_time_table(iter([5, 3, 5]))
    got = [(row.length, row.average, row.patterns) for row in rows]
    assert got == overlap_table([5, 3, 5], include_complements=False)
    assert [row.length for row in rows] == [5] * 6 + [3] * 3 + [5] * 6


@pytest.mark.parametrize("lengths", [[3, 0], [-1]])
def test_rejects_any_length_below_one(lengths):
    with pytest.raises(InvalidLengthError):
        waiting_time_table(lengths)


@pytest.mark.parametrize(
    "lengths", [[LENGTH_CEILING + 1], [32], [16, LENGTH_CEILING + 1]]
)
def test_lengths_past_the_ceiling_are_refused_before_any_row(lengths):
    # a length-16 table alone peaks at about 2.5 MB
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError):
            waiting_time_table(lengths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
