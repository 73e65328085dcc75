"""Brute-force enumeration and Monte Carlo simulation cross-checks."""

import random
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwait import (
    InvalidHorizonError,
    Pattern,
    SimulationResult,
    SimulationRunawayError,
    TooLargeError,
    exhaustive_tally,
    expected_waiting_time,
    occurrence_counts,
    parse_pattern,
    patterns_of_length,
    simulate,
)
from coinwait import oracle

from _oracles import brute_sigma_tau, per_toss_simulation


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


@pytest.mark.parametrize("n", [31, 32, 33, 40])
def test_tally_refuses_n_at_and_past_the_uint32_word(n):
    # strings are uint32 words, so n >= 32 must be refused before any
    # 2**n-entry array is allocated
    with pytest.raises(TooLargeError):
        exhaustive_tally(parse_pattern("110"), n)


def test_enumeration_ceiling_fits_a_uint32_word():
    # the refusals above pass at any ceiling up to 30, so they cannot pin it
    assert oracle.ENUMERATION_CEILING < 32


def test_tally_memory_does_not_grow_with_n():
    # numpy reports its buffers to tracemalloc; a 2**22-entry string array
    # alone would be 16 MB
    tracemalloc.start()
    try:
        exhaustive_tally(parse_pattern("111111"), 22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


_CHUNK_RNG = random.Random(20261018)


@pytest.mark.parametrize(
    "text",
    ["111111", "10101"]
    + ["".join(_CHUNK_RNG.choice("01") for _ in range(m)) for m in (6, 9, 12, 15, 17, 20)],
)
def test_tally_agrees_with_engine_across_chunks(text):
    # at n = 20 the strings go in 16 chunks of 2**16, each with its first
    # four tosses fixed: windows starting there straddle those high bits and
    # the chunk's varying low bits
    p = parse_pattern(text)
    counts = occurrence_counts(p, 20)
    tally = exhaustive_tally(p, 20)
    assert tally.avoiding_count == counts.sigma[20]
    assert tally.first_occurrence_counts == {
        j: counts.tau[j] for j in range(len(p), 21)
    }


@lru_cache(maxsize=None)
def _brute_to_12(text):
    return brute_sigma_tau(text, 12)


@pytest.mark.parametrize("chunk_bits", [1, 2, 3, 5, 8])
def test_tally_position_groups_at_small_chunks(monkeypatch, chunk_bits):
    # with c-bit chunks, windows ending at j >= n - c + m are scanned once,
    # those ending at j <= n - c are one integer per chunk (whenever
    # n - c >= m), and the m - 1 in between are scanned per chunk
    monkeypatch.setattr(oracle, "_TALLY_CHUNK_BITS", chunk_bits)
    outer_cases = 0
    for length in range(1, 6):
        for p in patterns_of_length(length, canonical=False):
            sigma, tau = _brute_to_12(str(p))
            for n in range(length, 13):
                outer_cases += n - chunk_bits >= length
                tally = exhaustive_tally(p, n)
                assert tally.avoiding_count == sigma[n]
                assert tally.first_occurrence_counts == {
                    j: tau[j] for j in range(length, n + 1)
                }
    assert outer_cases


# -- simulation --------------------------------------------------------


def test_toss_stream_is_the_integers_stream():
    # two tosses per raw word, low half first: the bits integers(0, 2)
    # gives from the same seed, also across reads that split a word
    stream = oracle._Tosses(np.random.Generator(np.random.PCG64(2026)))
    reference = np.random.Generator(np.random.PCG64(2026))
    for k in (1, 7, 2**15 + 3, 5):
        expected = reference.integers(0, 2, size=k, dtype=np.uint64)
        assert np.array_equal(stream.peek(k), expected.astype(bool))
        assert np.array_equal(stream.peek(k), expected.astype(bool))  # unread
        stream.at += k


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


@pytest.mark.parametrize(
    "bits",
    [(1.0, 0.0, 1.0), tuple(np.array([True, False, True]))],
    ids=["floats", "numpy-bools"],
)
def test_simulate_takes_any_bits_the_pattern_accepts(bits):
    # Pattern admits any bit equal to 0 or 1; the block scan indexes by bit
    assert simulate(Pattern(bits), 50, 3) == simulate(Pattern((1, 0, 1)), 50, 3)


def test_simulate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        simulate(parse_pattern("11"), 0, 1)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        simulate(parse_pattern("11"), 10, -1)
    with pytest.raises(TooLargeError):
        simulate(Pattern((1,) * 65), 10, 1)


@pytest.mark.parametrize("text, trials", [("110", 10**6), ("111111", 2 * 10**5)])
def test_simulate_memory_per_trial(text, trials):
    # lengths (8 B), ranks and windows (4 B each), the toss stream and one
    # round's compaction: about 31-35 B per game at peak
    tracemalloc.start()
    try:
        simulate(parse_pattern(text), trials, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36 * trials


def test_runaway_guard_trips():
    # a 2-toss cap cannot accommodate any game that misses HH straight away
    with pytest.raises(SimulationRunawayError):
        simulate(parse_pattern("11"), 64, 1, max_tosses=2)


@pytest.mark.parametrize("trials", [10**7 + 1, 10**12])
def test_simulate_refuses_more_than_ten_million_trials(trials):
    # refused before the per-game arrays are allocated: 10**12 games would
    # need terabytes
    with pytest.raises(TooLargeError):
        simulate(parse_pattern("110"), trials, 1)


def test_default_guard_lets_a_game_past_a_million_tosses_finish():
    # mean wait 2**19 - 2; this seed's game runs 1,944,616 tosses, while the
    # default cap for 18 tosses and one game is 18 * ceil(log(1e-12) /
    # log(1 - 2**-18)), about 1.3e8
    r = simulate(Pattern((1,) * 18), 1, 8)
    assert r.max_game_length_seen > 10**6


def _assert_matches_per_toss(text, trials, seed, max_tosses=None):
    expected = per_toss_simulation(text, trials, seed, max_tosses)
    p = parse_pattern(text)
    kwargs = {} if max_tosses is None else {"max_tosses": max_tosses}
    if expected is None:
        with pytest.raises(SimulationRunawayError):
            simulate(p, trials, seed, **kwargs)
        return
    mean, stderr, longest = expected
    assert simulate(p, trials, seed, **kwargs) == SimulationResult(
        pattern=p,
        trials=trials,
        seed=seed,
        generator="pcg64",
        sample_mean=mean,
        sample_stderr=stderr,
        max_game_length_seen=longest,
    )


@pytest.mark.parametrize("length", range(1, 7))
def test_simulate_matches_per_toss_reference(length):
    # the same games from the same seed, whichever mode plays the rounds
    for p in patterns_of_length(length, canonical=False):
        for trials in (1, 5, 40, 3000):
            _assert_matches_per_toss(str(p), trials, 100 * length + trials)


@pytest.mark.parametrize("length", [12, 20, 40, 64])
def test_simulate_matches_per_toss_reference_long_patterns(length):
    # many blocks per call; past length 12 both sides hit the cap together
    rng = random.Random(length)
    text = "".join(rng.choice("01") for _ in range(length))
    _assert_matches_per_toss(text, 3, rng.getrandbits(32), max_tosses=200_000)


@pytest.mark.parametrize(
    "text, trials, seed, max_tosses",
    [
        ("110", 10**5, 3, None),  # per-toss rounds first, blocks once few are live
        ("11", 64, 1, 2),
        ("101", 3000, 1, 9),
        ("10110", 40, 3, 60),
        ("1", 1, 4, 1),
    ],
)
def test_simulate_matches_per_toss_reference_at_mode_switch_and_cap(
    text, trials, seed, max_tosses
):
    _assert_matches_per_toss(text, trials, seed, max_tosses)


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
