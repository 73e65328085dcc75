"""Brute-force enumeration and Monte Carlo simulation cross-checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwait import (
    InvalidHorizonError,
    Pattern,
    SimulationRunawayError,
    TooLargeError,
    exhaustive_tally,
    expected_waiting_time,
    occurrence_counts,
    parse_pattern,
    patterns_of_length,
    simulate,
)

from _oracles import brute_sigma_tau


# -- exhaustive enumeration --------------------------------------------


def test_tally_by_hand():
    # length-3 strings vs 11: 110 and 111 end on toss 2 (one prefix), 011
    # ends on toss 3, and 000 001 010 100 101 avoid it
    tally = exhaustive_tally(parse_pattern("11"), 3)
    assert tally.first_occurrence_counts == {2: 1, 3: 1}
    assert tally.avoiding_count == 5
    assert tally.classified_total() == 8


@pytest.mark.parametrize("length", range(1, 4))
def test_tally_matches_string_enumeration(length):
    n = 10
    for p in patterns_of_length(length, canonical=False):
        sigma, tau = brute_sigma_tau(str(p), n)
        tally = exhaustive_tally(p, n)
        assert tally.avoiding_count == sigma[n]
        assert tally.first_occurrence_counts == {
            j: tau[j] for j in range(length, n + 1)
        }


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=6).map(tuple),
    st.integers(0, 14),
)
@settings(max_examples=40, deadline=None)
def test_tally_is_a_partition(bits, extra):
    p = Pattern(bits)
    n = min(len(bits) + extra, 14)
    assert exhaustive_tally(p, n).classified_total() == 1 << n


@pytest.mark.parametrize("n", [17, 18])
def test_tally_agrees_with_engine_deep(n):
    # all 62 patterns up to length 5, at depths past the acceptance sweep
    for length in range(1, 6):
        for p in patterns_of_length(length, canonical=False):
            counts = occurrence_counts(p, n)
            tally = exhaustive_tally(p, n)
            assert tally.avoiding_count == counts.sigma[n]
            for j in range(length, n + 1):
                assert tally.first_occurrence_counts[j] == counts.tau[j]


def test_tally_rejects_short_and_huge_n():
    with pytest.raises(InvalidHorizonError):
        exhaustive_tally(parse_pattern("110"), 2)
    with pytest.raises(TooLargeError):
        exhaustive_tally(parse_pattern("110"), 25)
    with pytest.raises(TooLargeError):
        exhaustive_tally(parse_pattern("110"), 15, ceiling=14)


# -- simulation --------------------------------------------------------


def test_simulation_is_deterministic():
    p = parse_pattern("101")
    a = simulate(p, 5000, 123)
    b = simulate(p, 5000, 123)
    assert a == b
    c = simulate(p, 5000, 124)
    assert c.sample_mean != a.sample_mean


def test_simulation_records_provenance():
    r = simulate(parse_pattern("11"), 10, 7)
    assert r.generator == "pcg64"
    assert r.seed == 7
    assert r.trials == 10
    assert r.max_game_length_seen >= 2


def test_single_trial_has_no_spread():
    r = simulate(parse_pattern("10"), 1, 5)
    assert r.sample_stderr == 0.0
    assert r.sample_mean >= 2


def test_simulate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        simulate(parse_pattern("11"), 0, 1)
    with pytest.raises(TooLargeError):
        simulate(Pattern((1,) * 65), 10, 1)


def test_runaway_guard_trips():
    # a 2-toss cap cannot accommodate any game that misses HH straight away
    with pytest.raises(SimulationRunawayError):
        simulate(parse_pattern("11"), 64, 1, max_tosses=2)


def test_sample_means_track_exact_values_across_seeds():
    # doubles and triples, twenty seeds each: the 4-standard-error window
    # should essentially never miss
    patterns = ["10", "11", "100", "101", "110", "111"]
    checks = 0
    hits = 0
    for text in patterns:
        p = parse_pattern(text)
        exact = expected_waiting_time(p)
        for seed in range(20):
            r = simulate(p, 10**6, seed)
            checks += 1
            if abs(r.sample_mean - exact) <= 4 * r.sample_stderr:
                hits += 1
    assert hits / checks >= 0.99
