"""Acceptance gate: the eleven headline requirements, one test each.

Every test prints a single PASS line on success (run pytest with -rA or -s
to see them collected together); a failure of any assertion is the
corresponding FAIL.  Stated time budgets are asserted with a wall clock.
"""

import json
import time
from fractions import Fraction

from coinwait import (
    correlation_set,
    exhaustive_tally,
    expected_profit,
    expected_waiting_time,
    mean_via_sigma_series,
    occurrence_counts,
    parse_pattern,
    patterns_of_length,
    simulate,
    verify_identities,
    waiting_time_bounds,
)
from coinwait.cli import main as cli_main
from coinwait.counting import fibonacci

from test_table import REFERENCE_TABLE


def report(criterion: int, text: str):
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_01_exact_doubles():
    start = time.perf_counter()
    four = expected_waiting_time(parse_pattern("10"))
    six = expected_waiting_time(parse_pattern("11"))
    elapsed = time.perf_counter() - start
    assert four == 4
    assert six == 6
    assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"
    report(1, f"N(10)=4 and N(11)=6, computed in {elapsed * 1e6:.0f} us")


def test_criterion_02_exact_triples():
    values = {
        "100": 8, "110": 8, "101": 10, "111": 14,
    }
    for text, want in values.items():
        assert expected_waiting_time(parse_pattern(text)) == want
    report(2, "N(100)=N(110)=8, N(101)=10, N(111)=14")


def test_criterion_03_worked_example():
    p = parse_pattern("10101")
    assert correlation_set(p).overlap_lengths() == (1, 3, 5)
    assert expected_waiting_time(p) == 2 + 2**3 + 2**5 == 42
    report(3, "N(10101)=2+8+32=42 with overlaps {1,3,5}")


def test_criterion_04_reference_table_via_cli(capsys):
    start = time.perf_counter()
    code = cli_main(["table", "--lengths", "2..6", "--format", "json"])
    elapsed = time.perf_counter() - start
    out, _ = capsys.readouterr()
    assert code == 0
    rows = json.loads(out)["results"]
    got = {}
    for row in rows:
        got.setdefault(row["length"], {})[row["average"]] = sorted(row["patterns"])
    want = {
        length: {avg: sorted(ps) for avg, ps in groups.items()}
        for length, groups in REFERENCE_TABLE.items()
    }
    assert got == want
    assert sum(len(ps) for groups in got.values() for ps in groups.values()) == 62
    sixes = got[6]
    assert {avg: len(ps) for avg, ps in sixes.items()} == {
        64: 10, 66: 11, 68: 3, 70: 3, 72: 2, 74: 1, 84: 1, 126: 1,
    }
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    report(4, f"table command reproduces all 62 groupings in {elapsed:.3f} s")


def test_criterion_05_parity_and_bounds_exhaustive():
    start = time.perf_counter()
    checked = 0
    for length in range(1, 11):
        lo, hi = waiting_time_bounds(length)
        for p in patterns_of_length(length, canonical=False):
            n = expected_waiting_time(p)
            assert n % 2 == 0, str(p)
            assert lo <= n <= hi, str(p)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 2046
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    report(5, f"all {checked} patterns of length <= 10 even and in range, {elapsed:.3f} s")


def test_criterion_06_oracle_equivalence():
    start = time.perf_counter()
    compared = 0
    for length in range(1, 6):
        for p in patterns_of_length(length, canonical=False):
            counts = occurrence_counts(p, 16)
            for n in range(length, 17):
                tally = exhaustive_tally(p, n)
                assert tally.avoiding_count == counts.sigma[n], (str(p), n)
                for j in range(length, n + 1):
                    assert tally.first_occurrence_counts[j] == counts.tau[j], (
                        str(p), n, j,
                    )
                compared += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f} s"
    report(6, f"{compared} exhaustive tallies match the engine exactly, {elapsed:.1f} s")


def test_criterion_07_recurrence_identities():
    start = time.perf_counter()
    checked = 0
    for length in range(1, 7):
        for p in patterns_of_length(length, canonical=False):
            assert verify_identities(p, 64).all_hold, str(p)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    report(7, f"doubling/expansion/telescoping hold for {checked} patterns, {elapsed:.2f} s")


def test_criterion_08_closed_forms():
    zero_one = occurrence_counts(parse_pattern("01"), 64)
    ones = occurrence_counts(parse_pattern("11"), 64)
    triple_a = occurrence_counts(parse_pattern("100"), 64)
    triple_b = occurrence_counts(parse_pattern("110"), 64)
    for n in range(65):
        assert zero_one.sigma[n] == n + 1
        assert ones.sigma[n] == fibonacci(n + 2)
        if n >= 1:
            assert triple_a.tau[n] == fibonacci(n) - 1
            assert triple_b.tau[n] == fibonacci(n) - 1
    report(8, "sigma(01)=n+1, sigma(11)=F(n+2), tau(100)=tau(110)=F(n)-1 up to n=64")


def test_criterion_09_series_convergence():
    # The 1e-6 tolerance is checked against the EXACT residual, never a
    # float.  At horizon 200 that residual provably exceeds 24 for 111111
    # (avoidance counts shrink like 0.9918^n there), so the horizon at
    # which every pattern meets the tolerance is itself measured exactly:
    # 200 suffices through length 3, 2400 covers everything up to 6.
    start = time.perf_counter()
    bound = Fraction(1, 10**6)
    worst_short = Fraction(0)
    for length in range(1, 4):
        for p in patterns_of_length(length, canonical=False):
            residual = expected_waiting_time(p) - mean_via_sigma_series(
                p, 200
            ).as_fraction()
            assert 0 < residual < bound, (str(p), float(residual))
            worst_short = max(worst_short, residual)

    slowest = expected_waiting_time(parse_pattern("111111")) - mean_via_sigma_series(
        parse_pattern("111111"), 200
    ).as_fraction()
    assert slowest > 24  # horizon 200 cannot meet the tolerance beyond triples

    worst = Fraction(0)
    for length in range(1, 7):
        for p in patterns_of_length(length, canonical=False):
            residual = expected_waiting_time(p) - mean_via_sigma_series(
                p, 2400
            ).as_fraction()
            assert 0 < residual < bound, (str(p), float(residual))
            worst = max(worst, residual)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    report(
        9,
        f"series within 1e-6 of N: horizon 200 through length 3 (worst exact"
        f" residual {float(worst_short):.2e}), horizon 2400 through length 6"
        f" (worst {float(worst):.2e}); length-6 residual at 200 is"
        f" {float(slowest):.1f}, {elapsed:.2f} s",
    )


def test_criterion_10_monte_carlo_sanity():
    start = time.perf_counter()
    seed = 20260822
    for text, exact in [("11", 6), ("10", 4), ("110", 8)]:
        r = simulate(parse_pattern(text), 10**6, seed)
        gap = abs(r.sample_mean - exact)
        assert gap <= 4 * r.sample_stderr, (text, r.sample_mean, r.sample_stderr)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    report(10, f"three million-game runs all within 4 standard errors, {elapsed:.1f} s")


def test_criterion_11_wager_arithmetic():
    assert expected_profit(parse_pattern("11"), 5) == 1
    assert expected_profit(parse_pattern("10"), 5) == -1
    report(11, "five-unit stake: +1 on 11, -1 on 10")
