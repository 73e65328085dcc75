"""Brute-force enumeration and Monte Carlo simulation cross-checks."""

import decimal
import random
import tracemalloc

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

from _oracles import (
    brute_sigma_tau,
    enumerated_completions,
    longest_prefix_suffix_state,
    per_toss_simulation,
    raw_word_reader,
)


# -- exhaustive enumeration --------------------------------------------


def test_tally_by_hand():
    # length-3 strings vs 11: 110 and 111 end on toss 2 (one prefix), 011
    # ends on toss 3, and 000 001 010 100 101 avoid it
    tally = exhaustive_tally(parse_pattern("11"), 3)
    assert tally.first_occurrence_counts == {2: 1, 3: 1}
    assert tally.avoiding_count == 5
    assert tally.classified_total() == 8


@pytest.mark.parametrize("length", range(1, 6))
def test_tally_matches_string_enumeration(length):
    # every n from the first step (n = m) on, and a single-window count at m = 1
    for p in patterns_of_length(length, canonical=False):
        sigma, tau = brute_sigma_tau(str(p), 12)
        for n in range(length, 13):
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
    # n at and past 32 bits, far past the ceiling, is refused before any
    # count is made
    with pytest.raises(TooLargeError):
        exhaustive_tally(parse_pattern("110"), n)


def test_tally_memory_does_not_grow_with_n():
    # a tally holds m counts; a 2**22-entry string array alone would be 16 MB
    tracemalloc.start()
    try:
        exhaustive_tally(parse_pattern("111111"), 22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_tally_memory_at_the_clis_longest_pattern_and_largest_n():
    # m counts and an m-row move table for a length-12 pattern, the CLI's
    # longest, at the largest n
    tracemalloc.start()
    try:
        exhaustive_tally(parse_pattern("110100111010"), 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**18


def test_tally_memory_at_the_ceiling_does_not_grow_with_m():
    # the longest pattern the ceiling allows, at the ceiling: 24 counts
    tracemalloc.start()
    try:
        exhaustive_tally(parse_pattern("1" * 24), 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


_MOVE_RNG = random.Random(20261021)
_MOVE_PATTERNS = [
    *(str(p) for m in range(1, 11) for p in patterns_of_length(m, canonical=False)),
    *("".join(_MOVE_RNG.choice("01") for _ in range(_MOVE_RNG.randint(11, 24)))
      for _ in range(20)),
]


def test_prefix_moves_match_the_definition():
    # every move from state k on toss b lands on the longest prefix of the
    # pattern that s[:k] + b ends with (m once the pattern is complete)
    for s in _MOVE_PATTERNS:
        moves = oracle._prefix_moves(tuple(map(int, s)))
        assert len(moves) == len(s)
        for k, row in enumerate(moves):
            expected = [longest_prefix_suffix_state(s, s[:k] + b) for b in "01"]
            assert row == expected, (s, k)


_DEEP_RNG = random.Random(20261018)
_DEEP_PATTERNS = ["111111", "10101"] + [
    "".join(_DEEP_RNG.choice("01") for _ in range(m)) for m in (6, 9, 12, 15, 17, 20)
]


@pytest.mark.parametrize("text", _DEEP_PATTERNS)
def test_tally_agrees_with_engine_across_chunks(text):
    # n = 20, past the brute-force sweeps, for lengths up to 20, where the
    # strings that avoid the pattern fill all 20 prefix states below m
    p = parse_pattern(text)
    counts = occurrence_counts(p, 20)
    tally = exhaustive_tally(p, 20)
    assert tally.avoiding_count == counts.sigma[20]
    assert tally.first_occurrence_counts == {
        j: counts.tau[j] for j in range(len(p), 21)
    }


@pytest.mark.parametrize("text", _DEEP_PATTERNS)
def test_tally_matches_numpy_enumeration_at_n_20(text):
    # every one of the 2**20 strings scanned window by window; each
    # first-completion prefix of length j stands for 2**(20 - j) strings
    tally = exhaustive_tally(parse_pattern(text), 20)
    completions = enumerated_completions(text, 20)
    assert tally.avoiding_count == completions[0]
    assert {
        j: count << (20 - j) for j, count in tally.first_occurrence_counts.items()
    } == {j: int(completions[j]) for j in range(len(text), 21)}


# -- simulation --------------------------------------------------------


def _fresh_word_bits(raw, k):
    # the low k bits of the next ceil(k / 64) words, lowest first, by int shifts
    words = raw(-(-k // 64)).tolist()
    return [(words[i // 64] >> (i % 64)) & 1 for i in range(k)]


def test_each_read_is_the_low_bits_of_fresh_raw_words():
    # a read never sees the bits an earlier read left in its last word
    raw = np.random.PCG64(2026).random_raw
    reference = np.random.PCG64(2026).random_raw
    for k in (1, 63, 64, 65, 2**15 + 3, 5):
        tosses = oracle._read(raw, k)
        assert tosses.dtype == bool
        assert tosses.tolist() == [bit == 1 for bit in _fresh_word_bits(reference, k)]


def test_reference_read_is_the_low_bits_of_fresh_raw_words():
    # the per-toss replay's reads, across word boundaries and within one word
    read = raw_word_reader(2026)
    reference = np.random.PCG64(2026).random_raw
    for k in (1, 8, 9, 3, 63, 64, 65, 3000, 2, 200, 1, 5000, 7):
        assert read(k).tolist() == _fresh_word_bits(reference, k)


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
    # no per-game number or length, only one-byte windows, one round's tosses
    # and one round's compaction: 10.0 and 4.0 B per game at peak
    tracemalloc.start()
    try:
        simulate(parse_pattern(text), trials, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14 * trials


@pytest.mark.parametrize(
    "text, trials, budgets",
    [
        pytest.param("1" * 12, 2000, 5.75, id="12-2000"),
        pytest.param("1" * 17, 200, 3.0, id="17-200"),
        pytest.param("1011010011", 2000, 4.5, id="1011010011-2000"),
    ],
)
def test_simulate_memory_in_blocks(text, trials, budgets):
    # a block holds at most _BLOCK_TOSSES one-byte cells; only one block's
    # tape and hit mask and its read are alive at once: 4.97, 2.44 and 3.71
    # of them at peak, so each bound leaves 15-23% for other numpy versions.
    # A tape kept alive into the next block's read reads 6.5 / 4.4 / 5.5,
    # and history kept as a view of the tape 4.9 / 3.35 / 3.6
    simulate(parse_pattern(text), 1, 1)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        simulate(parse_pattern(text), trials, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budgets * oracle._BLOCK_TOSSES


_WIDE = st.integers(2**300, 2**1200)


@given(
    num=st.one_of(
        st.just(0),
        st.integers(0, 2**64),
        st.integers(0, 2**160).map(lambda r: r * r),  # perfect squares
        _WIDE,
    ),
    den=st.one_of(st.integers(1, 2**64), _WIDE),  # a wide den makes tiny quotients
)
@settings(max_examples=300, deadline=None)
def test_sqrt_of_ratio_is_correctly_rounded(num, den):
    # a 100-digit root is within 1e-99 of the truth, relatively, so it rounds
    # to the same double unless the truth is that close to a midpoint
    with decimal.localcontext() as ctx:
        ctx.prec = 100
        expected = float((decimal.Decimal(num) / den).sqrt())
    assert oracle._sqrt_of_ratio(num, den) == expected


def test_runaway_guard_trips():
    # a 2-toss cap cannot accommodate any game that misses HH straight away
    with pytest.raises(SimulationRunawayError):
        simulate(parse_pattern("11"), 64, 1, max_tosses=2)


def test_runaway_guard_trips_in_one_step_rounds():
    # 5000 games x 10 tosses is past the block budget, so the cap is met
    # before any game can complete, while every round is one vectorised step
    with pytest.raises(SimulationRunawayError):
        simulate(Pattern((1,) * 10), 5000, 1, max_tosses=5)


@pytest.mark.parametrize("trials", [10**7 + 1, 10**12])
def test_simulate_refuses_more_than_ten_million_trials(trials):
    # refused before the per-game arrays are allocated: 10**12 games would
    # need terabytes
    with pytest.raises(TooLargeError):
        simulate(parse_pattern("110"), trials, 1)


def test_simulate_takes_exactly_ten_million_trials(monkeypatch):
    # the edge of the refusal above; no game is played, every one is taken
    # to end on toss 3
    monkeypatch.setattr(oracle, "_play", lambda p, trials, *_: {3: trials})
    r = simulate(parse_pattern("110"), 10**7, 1)
    assert (r.trials, r.sample_mean, r.max_game_length_seen) == (10**7, 3.0, 3)


def test_default_guard_lets_a_game_past_a_million_tosses_finish():
    # mean wait 2**19 - 2; this seed's game runs 1,123,915 tosses, while the
    # default cap for 18 tosses and one game is 18 * ceil(log(1e-12) /
    # log(1 - 2**-18)), about 1.3e8
    r = simulate(Pattern((1,) * 18), 1, 2)
    assert r.max_game_length_seen > 10**6


def _assert_matches_per_toss(text, trials, seed, max_tosses=None):
    expected = per_toss_simulation(text, trials, seed, max_tosses)
    p = parse_pattern(text)
    kwargs = {} if max_tosses is None else {"max_tosses": max_tosses}
    if expected is None:
        with pytest.raises(SimulationRunawayError):
            simulate(p, trials, seed, **kwargs)
        return None
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
    return expected


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
        # m * trials > 2**15, so games finish in one-step rounds, with
        # one-byte windows (8 tosses) and two-byte ones (9)
        ("10010111", 5000, 8, None),
        ("110100110", 5000, 9, None),
        ("11", 64, 1, 2),
        ("101", 3000, 1, 9),
        ("10110", 40, 3, 60),
        ("1", 1, 4, 1),
        # k * m = 2**15 exactly: blocks of 2m = 4 rounds from the first toss
        ("10", 16384, 2, None),
        # 2**m = 64 rounds per block, under the budget's 655
        ("110101", 100, 6, None),
    ],
)
def test_simulate_matches_per_toss_reference_at_mode_switch_and_cap(
    text, trials, seed, max_tosses
):
    _assert_matches_per_toss(text, trials, seed, max_tosses)


@pytest.mark.parametrize("max_tosses, longest", [(927, 927), (926, None)])
def test_simulate_matches_per_toss_reference_when_the_cap_cuts_a_block(
    max_tosses, longest
):
    # blocks of 256 from the first toss; the longest game ends on toss 927,
    # so the fourth block is cut to 159 rounds and settles it at the cap,
    # or is cut one round short of it and trips the guard
    expected = _assert_matches_per_toss("11111111", 20, 5, max_tosses)
    assert (expected and expected[2]) == longest


@pytest.mark.parametrize("length", [6, 8, 12, 16])
def test_a_single_game_reads_the_raw_words_in_order(length):
    # one game's blocks are 2**m tosses, whole raw words from its first toss,
    # so it ends where the pattern first ends in the raw bits, lowest first;
    # odd seeds play a pattern that starts with heads, even ones with tails
    rng = random.Random(length)
    for seed in range(1, 8):
        text = str(seed % 2) + "".join(rng.choice("01") for _ in range(length - 1))
        read = raw_word_reader(seed)
        bits = ""
        while (start := bits.find(text)) < 0:
            bits += (read(1 << 16) + ord("0")).tobytes().decode()
        r = simulate(parse_pattern(text), 1, seed)
        assert r.max_game_length_seen == start + length


def test_sample_means_track_exact_values_across_seeds():
    # twenty seeds each: the 4-standard-error window should essentially never
    # miss.  Doubles and triples end almost entirely in one-step rounds; the
    # length-10 games at 2000 trials are played in blocks of 32 rounds, then
    # longer ones as games finish
    cases = [(text, 10**6) for text in ["10", "11", "100", "101", "110", "111"]]
    cases += [("1111111111", 2000), ("1011010011", 2000)]
    checks = 0
    hits = 0
    for text, trials in cases:
        p = parse_pattern(text)
        exact = expected_waiting_time(p)
        for seed in range(20):
            r = simulate(p, trials, seed)
            checks += 1
            if abs(r.sample_mean - exact) <= 4 * r.sample_stderr:
                hits += 1
    assert hits / checks >= 0.99
