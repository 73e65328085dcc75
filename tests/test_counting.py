"""Exact avoidance/first-completion counting and its identities."""

import random
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwait import (
    DyadicRational,
    InvalidHorizonError,
    InvalidIndexError,
    Pattern,
    closed_form_tau,
    expected_waiting_time,
    fibonacci,
    first_occurrence_distribution,
    mean_via_sigma_series,
    occurrence_counts,
    parse_pattern,
    patterns_of_length,
    verify_identities,
)
from coinwait import counting
from coinwait.pattern import CorrelationSet

from _oracles import (
    automaton_sigma_tau,
    brute_sigma_tau,
    conditioned_sigma_tau,
    longest_prefix_suffix_state,
    prefix_automaton,
    series_sigma,
)


# -- fibonacci ---------------------------------------------------------


def test_fibonacci_values_and_recurrence():
    assert [fibonacci(k) for k in range(10)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    for n in range(2, 80):
        assert fibonacci(n) == fibonacci(n - 1) + fibonacci(n - 2)


def test_fibonacci_rejects_negative():
    with pytest.raises(ValueError):
        fibonacci(-1)


# -- the matcher automaton oracle --------------------------------------


def test_automaton_tables_for_small_patterns():
    assert prefix_automaton("11") == ((0, 1), (0, 2))
    assert prefix_automaton("10") == ((0, 1), (2, 1))


def test_automaton_table_threefold_overlap():
    table = prefix_automaton("10101")
    # from state 4 (stream suffix 1010) a 0 gives 10100, and no nonempty
    # prefix of 10101 ends that stream, so the fallback is all the way to 0
    assert table == ((0, 1), (2, 1), (0, 3), (4, 1), (0, 5))
    assert len(table) == 5  # live states 0..4; state 5 accepts
    assert table[4][1] == 5
    assert table[4][0] == 0


@pytest.mark.parametrize("length", range(1, 9))
def test_automaton_matches_longest_prefix_definition(length):
    for p in patterns_of_length(length, canonical=False):
        text = str(p)
        table = prefix_automaton(text)
        for k in range(length):
            for b in "01":
                assert table[k][int(b)] == longest_prefix_suffix_state(
                    text, text[:k] + b
                )


@pytest.mark.parametrize("length", range(1, 9))
def test_counts_match_automaton_occupancy(length):
    # all 510 patterns of length 1..8 against occupancy counting
    horizon = 60
    for p in patterns_of_length(length, canonical=False):
        sigma, tau = automaton_sigma_tau(str(p), horizon)
        counts = occurrence_counts(p, horizon)
        assert list(counts.sigma) == sigma
        assert list(counts.tau) == tau


_LONG_RNG = random.Random(20261018)


@pytest.mark.parametrize(
    "text",
    ["1" * 40, "10" * 20, "110" * 13, "1101" * 10]
    + ["".join(_LONG_RNG.choice("01") for _ in range(m)) for m in (48, 64)],
)
def test_counts_match_automaton_occupancy_for_long_patterns(text):
    # deep border chains, far past the horizon-64 sweep above
    sigma, tau = automaton_sigma_tau(text, 256)
    counts = occurrence_counts(parse_pattern(text), 256)
    assert list(counts.sigma) == sigma
    assert list(counts.tau) == tau


@given(st.lists(st.integers(0, 1), max_size=29).map(lambda c: tuple(c) + (1,)))
@settings(max_examples=60, deadline=None)
def test_engine_is_the_generating_function_for_any_overlap_set(coeffs):
    # verify's fault-injection cases swap in overlap sets no pattern has;
    # the engine must still give the series of c(z) / (z**m + (1 - 2z) c(z))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counting, "correlation_set", lambda p: CorrelationSet(coeffs))
        counts = occurrence_counts(Pattern((1,) * len(coeffs)), 80)
    assert list(counts.sigma) == series_sigma(coeffs, 80)


# -- sigma/tau counting ------------------------------------------------


@pytest.mark.parametrize("length", range(1, 5))
def test_counts_match_enumeration(length):
    horizon = 10
    for p in patterns_of_length(length, canonical=False):
        sigma, tau = brute_sigma_tau(str(p), horizon)
        counts = occurrence_counts(p, horizon)
        assert list(counts.sigma) == sigma
        assert list(counts.tau) == tau


def test_counts_match_enumeration_fivefold_overlap():
    sigma, tau = brute_sigma_tau("10101", 12)
    counts = occurrence_counts(parse_pattern("10101"), 12)
    assert list(counts.sigma) == sigma
    assert list(counts.tau) == tau
    # spot values, computed once by hand from the enumeration
    assert counts.sigma[5:9] == (31, 60, 117, 228)
    assert counts.tau[5:9] == (1, 2, 3, 6)


@pytest.mark.parametrize("text", ["01", "11", "100", "110", "1011", "10101"])
def test_counts_match_suffix_conditioned_recursion(text):
    # the overlap recurrence must reproduce the classic last-bits recursion
    horizon = 64
    sigma, tau = conditioned_sigma_tau(text, horizon)
    counts = occurrence_counts(parse_pattern(text), horizon)
    assert list(counts.sigma) == sigma
    assert list(counts.tau) == tau


def test_single_toss_counts():
    counts = occurrence_counts(parse_pattern("1"), 8)
    assert counts.sigma == (1,) * 9
    assert counts.tau == (0,) + (1,) * 8


def test_counts_start_conventions():
    counts = occurrence_counts(parse_pattern("110"), 5)
    assert counts.sigma[0] == 1
    assert counts.tau[0] == 0
    assert counts.tau[: 3] == (0, 0, 0)


def test_occurrence_counts_rejects_negative_horizon():
    with pytest.raises(InvalidHorizonError):
        occurrence_counts(parse_pattern("11"), -1)


# -- closed forms ------------------------------------------------------


def test_closed_form_values():
    assert [closed_form_tau("01", n) for n in range(2, 7)] == [1, 2, 3, 4, 5]
    assert [closed_form_tau("11", n) for n in range(2, 8)] == [1, 1, 2, 3, 5, 8]
    assert [closed_form_tau("100", n) for n in range(3, 8)] == [1, 2, 4, 7, 12]
    assert closed_form_tau("110", 7) == closed_form_tau("100", 7)


def test_closed_form_rejects_unknown_family_and_low_index():
    with pytest.raises(ValueError):
        closed_form_tau("101", 5)
    with pytest.raises(InvalidIndexError):
        closed_form_tau("100", 2)


@pytest.mark.parametrize("family", ["01", "11", "100", "110"])
def test_engine_reproduces_closed_forms(family):
    counts = occurrence_counts(parse_pattern(family), 64)
    for n in range(len(family), 65):
        assert counts.tau[n] == closed_form_tau(family, n)


def test_avoidance_closed_forms():
    zero_one = occurrence_counts(parse_pattern("01"), 64)
    assert all(zero_one.sigma[n] == n + 1 for n in range(65))
    ones = occurrence_counts(parse_pattern("11"), 64)
    assert all(ones.sigma[n] == fibonacci(n + 2) for n in range(65))


# -- distribution and series -------------------------------------------


def test_distribution_values():
    dist = first_occurrence_distribution(parse_pattern("11"), 8)
    assert dist[2] == DyadicRational(1, 2)
    assert dist[3] == DyadicRational(1, 3)
    assert dist[0] == 0 and dist[1] == 0
    counts = occurrence_counts(parse_pattern("11"), 8)
    assert all(dist[n] == DyadicRational(counts.tau[n], n) for n in range(9))


def test_distribution_rejects_horizon_below_length():
    with pytest.raises(InvalidHorizonError):
        first_occurrence_distribution(parse_pattern("110"), 2)


@pytest.mark.parametrize(
    "text, horizon, limit", [("11", 4000, 2 * 2**20), ("10101", 8000, 8 * 2**20)]
)
def test_distribution_holds_no_sigma(text, horizon, limit):
    # the probabilities themselves, 1.2 and 4.8 MiB at peak; holding every
    # sigma_n and tau_n as well came to 2.8 and 13.1 MiB
    p = parse_pattern(text)
    first_occurrence_distribution(p, len(p))  # the overlap set's own allocations
    tracemalloc.start()
    try:
        dist = first_occurrence_distribution(p, horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dist) == horizon + 1
    assert peak <= limit


def test_distribution_mass_accounts_for_everything():
    p = parse_pattern("1101")
    horizon = 40
    dist = first_occurrence_distribution(p, horizon)
    counts = occurrence_counts(p, horizon)
    total = DyadicRational(0)
    for prob in dist:
        total = total + prob
    assert total + DyadicRational(counts.sigma[horizon], horizon) == 1


def test_series_mean_monotone_and_bounded():
    p = parse_pattern("10101")
    exact = expected_waiting_time(p)
    previous = DyadicRational(0)
    for horizon in range(5, 60, 7):
        partial = mean_via_sigma_series(p, horizon)
        assert previous <= partial < exact
        previous = partial


def test_series_mean_gap_is_the_avoidance_tail():
    p = parse_pattern("110")
    for horizon in (6, 20):
        partial = mean_via_sigma_series(p, horizon)
        step = mean_via_sigma_series(p, horizon + 1)
        counts = occurrence_counts(p, horizon + 1)
        assert step - partial == DyadicRational(counts.sigma[horizon + 1], horizon + 1)


@pytest.mark.parametrize("horizon", [2000, 10000])
def test_series_mean_holds_a_window_not_the_sequence(horizon):
    # The sum runs over the engine's last 2m + 1 terms, each no longer than
    # the result, so the peak is a fixed number of result-sized ints however
    # far the horizon is.  Holding every sigma_n would take 13.4 MB at 10000.
    p = parse_pattern("111111")
    mean_via_sigma_series(p, 10)  # the overlap set's own allocations
    tracemalloc.start()
    try:
        result = mean_via_sigma_series(p, horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (result.numerator.bit_length() + 7) // 8
    assert peak <= 4 * (2 * len(p) + 1) * size + 16_384


def test_series_mean_rejects_a_negative_horizon():
    with pytest.raises(InvalidHorizonError):
        mean_via_sigma_series(parse_pattern("11"), -1)


@given(st.text("01", min_size=1, max_size=12), st.integers(0, 200))
@settings(max_examples=60, deadline=None)
def test_scaled_engine_is_the_counts_times_five_to_the_n(text, horizon):
    sigma, tau = automaton_sigma_tau(text, horizon)
    scaled = islice(counting._scaled_counts(parse_pattern(text)), horizon)
    for n, (s, t) in enumerate(scaled, 1):
        assert (s, t) == (sigma[n] * 5**n, tau[n] * 5**n)


# -- identities --------------------------------------------------------


@pytest.mark.parametrize("length", range(1, 7))
def test_identities_hold_for_canonical_patterns(length):
    for p in patterns_of_length(length):
        report = verify_identities(p, 2 * length + 8)
        assert report.all_hold, str(p)


def test_verify_identities_needs_room():
    with pytest.raises(InvalidHorizonError):
        verify_identities(parse_pattern("1101"), 7)


@pytest.mark.parametrize("index", [5, 17, 40])
def test_telescoping_check_flags_what_the_dyadic_balance_flags(index, monkeypatch):
    p = parse_pattern("10101")
    true = occurrence_counts(p, 40)
    tau = list(true.tau)
    tau[index] += 1
    broken = lambda pattern: zip(true.sigma[1:], tau[1:])  # (sigma_n, tau_n) from n = 1
    monkeypatch.setattr(counting, "_counts", broken)
    # The balance as exact dyadics, sum_{5<=n<=q} tau_n / 2**n == 1 - sigma_q / 2**q.
    expected = []
    mass = DyadicRational(0)
    for q in range(5, 41):
        mass = mass + DyadicRational(tau[q], q)
        if mass != DyadicRational(1) - DyadicRational(true.sigma[q], q):
            expected.append(q)
    assert expected == list(range(index, 41))
    report = verify_identities(p, 40)
    assert report.telescoping_failures == tuple(expected)
    # The expansion sigma_n == sum of tau_{j+n} over the overlap lengths j,
    # the j whose prefix and suffix of the pattern are equal as strings.
    text = str(p)
    overlaps = [j for j in range(1, 6) if text[:j] == text[-j:]]
    expansion = [
        n for n in range(0, 36) if true.sigma[n] != sum(tau[j + n] for j in overlaps)
    ]
    assert expansion == [index - j for j in reversed(overlaps) if 0 <= index - j <= 35]
    assert report.expansion_failures == tuple(expansion)


@pytest.mark.parametrize("index", [3, 9, 40])
def test_a_wrong_sigma_breaks_each_identity_where_it_is_read(index, monkeypatch):
    p = parse_pattern("1101")
    true = occurrence_counts(p, 40)
    sigma = list(true.sigma)
    sigma[index] -= 1
    broken = lambda pattern: zip(sigma[1:], true.tau[1:])
    monkeypatch.setattr(counting, "_counts", broken)
    report = verify_identities(p, 40)
    # sigma_n is read by doubling at n and n + 1, by the expansion at n
    # (up to N - m = 36) and by the balance at q = n (from m = 4)
    assert report.doubling_failures == tuple(n for n in (index, index + 1) if n <= 40)
    assert report.expansion_failures == ((index,) if index <= 36 else ())
    assert report.telescoping_failures == ((index,) if index >= 4 else ())


@pytest.mark.parametrize("horizon", [2000, 10000])
def test_identity_checks_hold_a_window_not_the_sequences(horizon):
    # The checks read the last m + 1 sigmas and m taus as the engine yields
    # them, so the peak is a fixed number of terms below 2**horizon however
    # far the horizon is.  Holding both sequences would take 13 MB at 10000.
    p = parse_pattern("111111")
    verify_identities(p, 12)  # the overlap set's own allocations
    tracemalloc.start()
    try:
        report = verify_identities(p, horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_hold
    size = (horizon + 8) // 8  # bytes of 2**horizon
    assert peak <= 4 * (2 * len(p) + 4) * size + 16_384


def test_identity_report_failure_bookkeeping():
    good = verify_identities(parse_pattern("11"), 12)
    assert good.doubling_failures == ()
    assert good.expansion_failures == ()
    assert good.telescoping_failures == ()
    assert good.all_hold
