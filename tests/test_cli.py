"""End-to-end checks of the command-line surface, run in process."""

import csv
import io
import json
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from coinwait import (
    CorrelationSet,
    DyadicRational,
    IdentityReport,
    SimulationRunawayError,
    correlation_set,
    occurrence_counts,
    parse_pattern,
    waiting_time_table,
)
from coinwait import cli, counting
from coinwait.cli import main

from _oracles import conditioned_sigma_tau, reference_decimal


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# -- expect ------------------------------------------------------------


def test_expect_text(capsys):
    code, out, err = run(["expect", "10101", "--stake", "5"], capsys)
    assert code == 0
    assert "expected tosses   42" in out
    assert "overlaps (c_j=1)  1 3 5" in out
    assert "expected profit   +37" in out


def test_expect_accepts_heads_tails(capsys):
    code, out, _ = run(["expect", "HH"], capsys)
    assert code == 0
    assert "expected tosses   6" in out


def test_expect_json_envelope(capsys):
    code, out, _ = run(["expect", "11", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"command", "inputs", "results"}
    assert doc["command"] == "expect"
    assert doc["inputs"] == {"pattern": "11", "stake": None}
    assert doc["results"]["expected_tosses"] == 6
    assert doc["results"]["overlaps"] == [1, 2]


def test_expect_json_big_numbers_become_strings(capsys):
    code, out, _ = run(["expect", "1" * 60, "--format", "json"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert isinstance(results["expected_tosses"], str)
    assert int(results["expected_tosses"]) == (1 << 61) - 2


def test_json_integers_above_53_bits_become_strings(capsys):
    stake = 10**20
    code, out, _ = run(
        ["expect", "11", "--stake", str(stake), "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["inputs"]["stake"] == str(stake)
    assert doc["results"]["stake"] == str(stake)
    assert doc["results"]["expected_profit"] == str(6 - stake)
    assert doc["results"]["expected_tosses"] == 6
    seed = 2**60
    argv = ["simulate", "11", "--trials", "10", "--seed", str(seed), "--format", "json"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["inputs"]["seed"] == str(seed)
    assert doc["results"]["seed"] == str(seed)
    assert doc["results"]["trials"] == 10


def test_expect_csv(capsys):
    code, out, _ = run(["expect", "110", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "pattern", "length", "overlaps", "expected_tosses",
        "lower_bound", "upper_bound", "stake", "expected_profit",
    ]
    assert rows[1][0] == "110"
    assert rows[1][3] == "8"


def test_expect_rejects_bad_pattern(capsys):
    code, _, err = run(["expect", "21"], capsys)
    assert code == 1
    assert "invalid symbol" in err


def test_expect_rejects_negative_stake(capsys):
    code, _, err = run(["expect", "11", "--stake", "-2"], capsys)
    assert code == 1


# -- table -------------------------------------------------------------


def test_table_csv_round_trips(capsys):
    code, out, _ = run(["table", "--lengths", "2..6", "--format", "csv"], capsys)
    assert code == 0
    reader = csv.reader(io.StringIO(out))
    assert next(reader) == ["length", "average", "pattern"]
    groups = {}
    for length, average, pattern in reader:
        groups.setdefault((int(length), int(average)), []).append(pattern)
    want = {
        (row.length, row.average): list(row.patterns)
        for row in waiting_time_table(range(2, 7))
    }
    assert groups == want


def test_table_json_round_trips(capsys):
    code, out, _ = run(["table", "--lengths", "2..4", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    want = [
        {"length": r.length, "average": r.average, "patterns": list(r.patterns)}
        for r in waiting_time_table(range(2, 5))
    ]
    assert doc["results"] == want


def test_table_text_notes_complements(capsys):
    _, out, _ = run(["table", "--lengths", "2..2"], capsys)
    assert "complement" in out
    _, out_all, _ = run(["table", "--lengths", "2..2", "--all-patterns"], capsys)
    assert "complement" not in out_all
    assert "01" in out_all


def test_table_single_length_argument(capsys):
    code, out, _ = run(["table", "--lengths", "3", "--format", "csv"], capsys)
    assert code == 0
    assert out.count("\n") == 5  # header plus four canonical triples


def test_table_rejects_bad_ranges(capsys):
    assert run(["table", "--lengths", "5..3"], capsys)[0] == 1
    assert run(["table", "--lengths", "abc"], capsys)[0] == 1
    assert run(["table", "--lengths", "2..13"], capsys)[0] == 1


def test_no_option_lifts_the_length_ceiling(capsys):
    for argv in (
        ["table", "--lengths", "13", "--cap", "13"],
        ["verify", "--cap", "13"],
    ):
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --cap 13" in err


def test_lengths_past_the_ceiling_are_refused_before_enumerating(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated past the length ceiling")

    for name in ("waiting_time_table", "verify_identities", "exhaustive_tally"):
        monkeypatch.setattr(cli, name, refuse)
    for argv, lowest in (
        (["table", "--lengths", "2..13"], 2),
        (["verify", "--lengths", "1..13"], 1),
    ):
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert err == (
            f"error: lengths must satisfy {lowest} <= min <= max <= 12,"
            f" got {lowest}..13\n"
        )


# -- dist --------------------------------------------------------------


def test_dist_csv_header_and_values(capsys):
    code, out, _ = run(["dist", "01", "--horizon", "6", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "tau", "probability", "decimal", "cumulative", "residual"]
    assert rows[1] == ["2", "1", "1/4", "0.25", "0.25", "0.75"]
    assert rows[-1][0] == "6"


def test_dist_json_residual_is_exact(capsys):
    code, out, _ = run(["dist", "1101", "--horizon", "20", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    counts = occurrence_counts(parse_pattern("1101"), 20)
    assert doc["results"]["residual"] == DyadicRational(
        counts.sigma[20], 20
    ).fraction_str()
    masses = [float(r["decimal"]) for r in doc["results"]["rows"]]
    assert abs(sum(masses) + counts.sigma[20] / 2**20 - 1.0) < 1e-12


def test_dist_far_decimals_match_reference_renderer(capsys):
    code, out, _ = run(["dist", "10101", "--horizon", "600", "--format", "json"], capsys)
    assert code == 0
    sigma, tau = conditioned_sigma_tau("10101", 600)
    rows = json.loads(out)["results"]["rows"]
    assert [row["n"] for row in rows] == list(range(5, 601))
    for row in rows:
        n = row["n"]
        assert row["decimal"] == reference_decimal(tau[n], n)
        assert row["cumulative"] == reference_decimal(2**n - sigma[n], n)
        assert row["residual"] == reference_decimal(sigma[n], n)


def _int_digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@pytest.fixture
def default_digit_limit():
    """Python's default 4300-digit limit on int <-> str, set for one test.

    Yields None on a Python that has no such limit.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield None
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield 4300
    finally:
        sys.set_int_max_str_digits(saved)


def test_dist_writes_counts_past_the_int_digit_limit(capsys, default_digit_limit):
    # The cumulative column at n = 4400 has 4400 digits, past the limit.
    code, out, err = run(["dist", "11", "--horizon", "4400", "--format", "json"], capsys)
    assert (code, err) == (0, "")
    assert _int_digit_limit() == default_digit_limit
    last = json.loads(out)["results"]["rows"][-1]
    sigma, _ = conditioned_sigma_tau("11", 4400)
    k, e = sigma[4400], 4400
    # k * 5**e has under 4300 digits, so the reference can write it out.
    assert last["residual"] == reference_decimal(k, e)
    assert Fraction(Decimal(last["cumulative"])) == 1 - Fraction(k, 2**e)
    assert len(last["cumulative"]) == e + 2  # "0." and e digits


def test_expect_writes_a_waiting_time_past_the_int_digit_limit(
    capsys, default_digit_limit
):
    code, out, err = run(["expect", "1" * 15_000, "--format", "json"], capsys)
    assert (code, err) == (0, "")
    assert _int_digit_limit() == default_digit_limit
    # Decimal(str) is not bound by the limit; int(str) would be.
    expected = json.loads(out)["results"]["expected_tosses"]
    assert Decimal(expected) == 2**15_001 - 2


def test_dist_rejects_horizon_below_length(capsys):
    code, _, err = run(["dist", "1101", "--horizon", "3"], capsys)
    assert code == 1
    assert "horizon" in err


# -- simulate ----------------------------------------------------------


def test_simulate_text_and_determinism(capsys):
    args = ["simulate", "11", "--trials", "20000", "--seed", "9"]
    code, out1, _ = run(args, capsys)
    assert code == 0
    assert "exact expectation  6" in out1
    _, out2, _ = run(args, capsys)
    assert out1 == out2


def test_simulate_json_fields(capsys):
    code, out, _ = run(
        ["simulate", "10", "--trials", "5000", "--seed", "4", "--format", "json"],
        capsys,
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["generator"] == "pcg64"
    assert results["exact"] == 4
    assert results["trials"] == 5000
    assert abs(results["sample_mean"] - 4) < 0.5


def test_simulate_rejects_bad_trials(capsys):
    assert run(["simulate", "11", "--trials", "0"], capsys)[0] == 1


def test_simulate_rejects_a_negative_seed(capsys):
    code, out, err = run(["simulate", "11", "--seed", "-1"], capsys)
    assert (code, out, err) == (1, "", "error: seed must be >= 0, got -1\n")


def test_simulate_refuses_too_many_trials(capsys):
    code, out, err = run(["simulate", "110", "--trials", "100000000"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "10000000" in err


def test_simulate_runaway_maps_to_internal_guard_exit(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise SimulationRunawayError("a game exceeded the cap")

    monkeypatch.setattr(cli, "simulate", explode)
    code, _, err = run(["simulate", "11"], capsys)
    assert code == 3
    assert "internal guard" in err


# -- verify ------------------------------------------------------------


def test_verify_passes_clean(capsys):
    code, out, _ = run(
        ["verify", "--lengths", "2..3", "--horizon", "32", "--oracle-n", "8"], capsys
    )
    assert code == 0
    assert "all identities hold" in out


def test_verify_json(capsys):
    code, out, _ = run(
        ["verify", "--lengths", "2..2", "--horizon", "16", "--oracle-n", "6",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["all_ok"] is True
    assert {r["pattern"] for r in doc["results"]["patterns"]} == {"10", "11"}


def test_verify_reports_failures_with_exit_two(capsys, monkeypatch):
    def always_broken(p, horizon):
        return IdentityReport(
            pattern=p,
            horizon=horizon,
            correlation=correlation_set(p),
        counts=occurrence_counts(p, horizon),
            doubling_failures=(3,),
            expansion_failures=(),
            telescoping_failures=(),
        )

    monkeypatch.setattr(cli, "verify_identities", always_broken)
    code, out, _ = run(
        ["verify", "--lengths", "2..2", "--horizon", "16", "--oracle-n", "4"], capsys
    )
    assert code == 2
    assert "FAIL" in out
    assert "doubling at n=3" in out


def test_verify_catches_a_wrong_overlap_set(capsys, monkeypatch):
    # the engine and the identity checks both read the overlap set; only the
    # exhaustive tally can notice when it is wrong
    true_correlation = correlation_set

    def without_proper_overlaps(p):
        if str(p) == "10101":
            return CorrelationSet((0, 0, 0, 0, 1))
        return true_correlation(p)

    monkeypatch.setattr(counting, "correlation_set", without_proper_overlaps)
    code, out, _ = run(["verify", "--lengths", "5..5", "--format", "json"], capsys)
    assert code == cli.EXIT_VERIFICATION_FAILED
    rows = {r["pattern"]: r for r in json.loads(out)["results"]["patterns"]}
    assert rows["10101"]["oracle_ok"] is False
    assert [p for p, r in rows.items() if not r["oracle_ok"]] == ["10101"]


def test_verify_flags_a_dropped_border_only_within_the_tally(capsys, monkeypatch):
    # an engine blind to every proper overlap first goes wrong at
    # n = 2m - b, b the longest proper border; verify's tally reaches
    # max(m, 10), so bordered patterns past that go unflagged
    def full_length_only(p):
        return CorrelationSet((0,) * (len(p) - 1) + (1,))

    monkeypatch.setattr(counting, "correlation_set", full_length_only)
    code, out, _ = run(["verify", "--lengths", "2..8", "--format", "json"], capsys)
    assert code == cli.EXIT_VERIFICATION_FAILED
    flagged, missed = set(), set()
    for row in json.loads(out)["results"]["patterns"]:
        s, m = row["pattern"], row["length"]
        b = max(k for k in range(m) if s[:k] == s[m - k :])
        if b and 2 * m - b <= max(m, 10):
            flagged.add(s)
        elif b:
            missed.add(s)
        assert row["oracle_ok"] is (s not in flagged)
    assert (len(flagged), len(missed)) == (36, 139)


def test_verify_tallies_each_pattern_once_at_its_top_n(capsys, monkeypatch):
    calls = []
    tally = cli.exhaustive_tally

    def counted(p, n):
        calls.append((len(p), n))
        return tally(p, n)

    monkeypatch.setattr(cli, "exhaustive_tally", counted)
    code, out, _ = run(["verify", "--lengths", "2..8"], capsys)
    assert code == 0
    assert "all identities hold" in out
    assert len(calls) == 254  # the canonical patterns of lengths 2..8
    assert all(n == max(m, 10) for m, n in calls)


def test_verify_refuses_an_oracle_n_above_the_ceiling_before_enumerating(capsys):
    code, out, err = run(
        ["verify", "--lengths", "1..1", "--horizon", "2", "--oracle-n", "40"], capsys
    )
    assert (code, out) == (1, "")
    assert err == "error: n=40 exceeds the enumeration ceiling 24\n"


def test_verify_rejects_an_oracle_n_below_one(capsys):
    code, out, err = run(
        ["verify", "--lengths", "5..5", "--horizon", "10", "--oracle-n", "-3"], capsys
    )
    assert (code, out) == (1, "")
    assert err == "error: oracle-n must be >= 1, got -3\n"


def test_verify_names_the_top_n_it_tallied(capsys):
    # each pattern is tallied at max(m, --oracle-n); the JSON inputs still
    # echo the value given
    argv = ["verify", "--lengths", "4..5", "--horizon", "10", "--oracle-n", "3"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.splitlines()[0].endswith("enumeration up to n=5")
    code, out, _ = run([*argv, "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["inputs"]["oracle_n"] == 3


def test_verify_rejects_small_horizon(capsys):
    code, _, err = run(["verify", "--lengths", "2..6", "--horizon", "10"], capsys)
    assert code == 1
    assert "horizon" in err


# -- shared plumbing ---------------------------------------------------


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run(
        ["table", "--lengths", "2..2", "--format", "csv", "--output", str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8").startswith("length,average,pattern\n")


def test_output_write_failure_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(["expect", "11", "--output", str(target)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "No such file or directory" in err


def test_parser_is_built_once_and_keeps_no_options(tmp_path, capsys):
    target = tmp_path / "all.txt"
    code, out, _ = run(
        ["table", "--lengths", "2..3", "--all-patterns", "--output", str(target)],
        capsys,
    )
    assert (code, out) == (0, "")
    parser = cli._build_parser()
    code, second, _ = run(["table", "--lengths", "2..3"], capsys)
    assert code == 0
    assert cli._build_parser() is parser
    cli._build_parser.cache_clear()
    try:
        code, fresh, _ = run(["table", "--lengths", "2..3"], capsys)
    finally:
        cli._build_parser.cache_clear()
    assert code == 0
    # neither --all-patterns nor --output carried over into the second call
    assert second == fresh
    assert target.read_text(encoding="utf-8") != fresh


def test_usage_errors_exit_one(capsys):
    assert run([], capsys)[0] == 1
    assert run(["expect"], capsys)[0] == 1
    assert run(["frobnicate"], capsys)[0] == 1
    assert run(["expect", "11", "--format", "yaml"], capsys)[0] == 1


def test_readme_expect_sample_is_what_the_cli_prints(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    prompt = "$ coinwait expect HH --stake 5\n"
    assert prompt in readme
    sample = readme.split(prompt, 1)[1].split("```", 1)[0]
    assert run(["expect", "HH", "--stake", "5"], capsys) == (0, sample, "")
