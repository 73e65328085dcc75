"""Pattern parsing, overlaps and exact waiting times."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinwait import (
    CorrelationSet,
    EmptyPatternError,
    InvalidLengthError,
    InvalidSymbolError,
    Pattern,
    complement,
    correlation_set,
    expected_profit,
    expected_waiting_time,
    parse_pattern,
    patterns_of_length,
    waiting_time_bounds,
    waiting_time_report,
)

from _oracles import operational_correlation


bit_tuples = st.lists(st.integers(0, 1), min_size=1, max_size=12).map(tuple)


def _doubled(pieces):
    # w -> w + x + w for each piece x: every earlier w stays a border, so
    # the border chain is as deep as the number of pieces.
    w = ()
    for x in pieces:
        w = w + tuple(x) + w
    return w[:300] or (1,)


# Patterns up to length 300: random ones, and two shapes with long chains
# of overlaps (a short unit repeated and cut anywhere, and nested doubling).
long_bit_tuples = st.one_of(
    st.lists(st.integers(0, 1), min_size=1, max_size=300).map(tuple),
    st.builds(
        lambda unit, length: tuple((unit * length)[:length]),
        st.lists(st.integers(0, 1), min_size=1, max_size=8),
        st.integers(1, 300),
    ),
    st.lists(st.lists(st.integers(0, 1), max_size=3), min_size=1, max_size=8).map(
        _doubled
    ),
)


# -- parsing -----------------------------------------------------------


def test_parse_binary_digits():
    assert parse_pattern("10101").bits == (1, 0, 1, 0, 1)


def test_parse_heads_tails_any_case():
    assert parse_pattern("HTH").bits == (1, 0, 1)
    assert parse_pattern("hth").bits == (1, 0, 1)
    assert parse_pattern("tH").bits == (0, 1)


def test_parse_trims_whitespace():
    assert parse_pattern("  11 \n").bits == (1, 1)


def test_parse_rejects_empty_and_blank():
    with pytest.raises(EmptyPatternError):
        parse_pattern("")
    with pytest.raises(EmptyPatternError):
        parse_pattern("   ")


def test_parse_rejects_unknown_symbol_with_position():
    # index is the position in the trimmed text; a first symbol in neither
    # alphabet is refused at index 0
    for text, symbol, index in ((" 10x1", "x", 2), ("x1", "x", 0), ("2", "2", 0)):
        with pytest.raises(InvalidSymbolError) as exc:
            parse_pattern(text)
        assert (exc.value.symbol, exc.value.index) == (symbol, index)


def test_parse_rejects_mixed_alphabets():
    for text, symbol in (("1H", "H"), ("T0", "0"), ("H1", "1"), (" h0", "0")):
        with pytest.raises(InvalidSymbolError) as exc:
            parse_pattern(text)
        assert (exc.value.symbol, exc.value.index) == (symbol, 1)


@given(bit_tuples)
def test_parse_round_trips_both_renderings(bits):
    p = Pattern(bits)
    assert parse_pattern(str(p)) == p
    assert parse_pattern(p.heads_tails()) == p


def test_pattern_rejects_empty_and_bad_bits():
    with pytest.raises(EmptyPatternError):
        Pattern(())
    with pytest.raises(ValueError):
        Pattern((0, 2))


def test_pattern_sequence_behaviour():
    p = Pattern((1, 0, 1))
    assert len(p) == 3
    assert list(p) == [1, 0, 1]
    assert p[0] == 1 and p[-1] == 1
    assert str(p) == "101"
    assert p.heads_tails() == "HTH"


def test_pattern_takes_any_sequence_of_bits_as_a_tuple():
    p = Pattern([1, 0, 1])
    assert p.bits == (1, 0, 1)
    assert p == Pattern((1, 0, 1))
    assert hash(p) == hash(Pattern((1, 0, 1)))


# -- complement --------------------------------------------------------


def test_patterns_of_length_order_and_count():
    assert [str(p) for p in patterns_of_length(2, canonical=False)] == [
        "00", "01", "10", "11",
    ]
    assert [str(p) for p in patterns_of_length(3)] == ["100", "101", "110", "111"]
    for length in range(1, 13):
        every = [str(p) for p in patterns_of_length(length, canonical=False)]
        assert every == [format(v, f"0{length}b") for v in range(1 << length)]
        canonical = [str(p) for p in patterns_of_length(length)]
        assert canonical == every[1 << (length - 1):]
    with pytest.raises(InvalidLengthError):
        next(patterns_of_length(0))


def test_complement_swaps_and_is_involutive():
    p = parse_pattern("1101")
    assert str(complement(p)) == "0010"
    assert complement(complement(p)) == p


@pytest.mark.parametrize("length", range(1, 9))
def test_complement_preserves_waiting_time_and_overlaps(length):
    for p in patterns_of_length(length, canonical=False):
        q = complement(p)
        assert expected_waiting_time(p) == expected_waiting_time(q)
        assert correlation_set(p) == correlation_set(q)


# -- overlap structure -------------------------------------------------


def test_correlation_set_known_cases():
    assert correlation_set(parse_pattern("11")).coefficients == (1, 1)
    assert correlation_set(parse_pattern("10")).coefficients == (0, 1)
    assert correlation_set(parse_pattern("10101")).overlap_lengths() == (1, 3, 5)
    assert correlation_set(parse_pattern("111111")).overlap_lengths() == (
        1, 2, 3, 4, 5, 6,
    )


@pytest.mark.parametrize("length", range(1, 9))
def test_correlation_matches_truncation_definition(length):
    # The border-chain indicators must agree with the roundabout
    # completable-truncation extraction for every pattern.
    for p in patterns_of_length(length, canonical=False):
        assert correlation_set(p).coefficients == operational_correlation(str(p))


@given(long_bit_tuples)
def test_correlation_matches_slicing_definition(bits):
    # c_j = 1 exactly when the length-j prefix equals the length-j suffix;
    # the truncation oracle above is exponential, this reaches length 300.
    m = len(bits)
    expected = tuple(int(bits[:j] == bits[m - j:]) for j in range(1, m + 1))
    assert correlation_set(Pattern(bits)).coefficients == expected


@pytest.mark.parametrize("length", range(1, 9))
def test_full_length_overlap_always_present(length):
    for p in patterns_of_length(length, canonical=False):
        assert correlation_set(p).coefficients[-1] == 1


def test_correlation_set_m_property():
    c = CorrelationSet((0, 1, 1))
    assert c.m == 3
    assert c.overlap_lengths() == (2, 3)


# -- waiting times -----------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [
        ("10", 4), ("11", 6),
        ("100", 8), ("110", 8), ("101", 10), ("111", 14),
        ("1011", 18), ("1010", 20), ("1111", 30),
        ("10101", 42), ("11111", 62), ("111111", 126),
    ],
)
def test_expected_waiting_time_values(text, value):
    assert expected_waiting_time(parse_pattern(text)) == value


@pytest.mark.parametrize("length", range(1, 9))
def test_waiting_time_parity_bounds_and_extremes(length):
    lo, hi = waiting_time_bounds(length)
    for p in patterns_of_length(length, canonical=False):
        n = expected_waiting_time(p)
        assert n % 2 == 0
        assert lo <= n <= hi
        sole_overlap = correlation_set(p).overlap_lengths() == (length,)
        assert (n == lo) == sole_overlap
        constant = len(set(p.bits)) == 1
        assert (n == hi) == constant


def test_waiting_time_bounds_rejects_bad_length():
    with pytest.raises(InvalidLengthError):
        waiting_time_bounds(0)


def test_single_toss_pattern():
    assert expected_waiting_time(parse_pattern("1")) == 2
    assert expected_waiting_time(parse_pattern("0")) == 2


# -- wager and report --------------------------------------------------


def test_expected_profit_five_unit_stake():
    assert expected_profit(parse_pattern("11"), 5) == 1
    assert expected_profit(parse_pattern("10"), 5) == -1


def test_expected_profit_rejects_negative_stake():
    with pytest.raises(ValueError):
        expected_profit(parse_pattern("11"), -1)


def test_waiting_time_report_fields():
    r = waiting_time_report(parse_pattern("10101"), stake=5)
    assert r.expected_tosses == 42
    assert (r.lower_bound, r.upper_bound) == (32, 62)
    assert r.correlation.overlap_lengths() == (1, 3, 5)
    assert r.stake == 5 and r.expected_profit == 37
    bare = waiting_time_report(parse_pattern("11"))
    assert bare.stake is None and bare.expected_profit is None
