"""End-to-end checks of the command-line surface, run in process."""

import contextlib
import csv
import decimal
import io
import json
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from _oracles import (
    conditioned_sigma_tau, csv_rewritten, reference_decimal, reference_dist
)


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


@given(
    bits=st.lists(st.sampled_from("01"), min_size=1, max_size=70).map("".join),
    heads_tails=st.booleans(),
    stake=st.one_of(st.none(), st.just(0), st.integers(2**53 + 1, 2**80)),
)
@settings(max_examples=60, deadline=None)
def test_expect_csv_needs_no_quoting(bits, heads_tails, stake):
    # The CLI joins CSV cells with commas and quotes none; that is right only
    # while csv.writer would write the same bytes and no cell holds a comma.
    typed = bits.translate(str.maketrans("01", "TH")) if heads_tails else bits
    argv = ["expect", typed, "--format", "csv"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ([] if stake is None else ["--stake", str(stake)]))
    assert code == 0
    assert csv_rewritten(out.getvalue()) == out.getvalue()
    assert [len(row) for row in csv.reader(io.StringIO(out.getvalue()))] == [8, 8]


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


def test_lengths_at_the_ceiling_are_accepted(capsys):
    # 12, the longest length table and verify take; 13 is refused above
    for argv, first in (
        (["table", "--lengths", "12", "--format", "csv"], "12,4096,100000000000"),
        (
            ["verify", "--lengths", "12..12", "--horizon", "24", "--oracle-n", "12"],
            "checked 2048 canonical patterns (lengths 12..12), horizon 24,"
            " enumeration up to n=12",
        ),
    ):
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        assert first in out.splitlines()[:2]


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


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_expect_writes_a_waiting_time_past_the_int_digit_limit(
    fmt, capsys, default_digit_limit
):
    # JSON turns the 4,516-digit int into a string before writing; text and
    # CSV call str() on it as they write, so the limit must be lifted then too.
    code, out, err = run(["expect", "1" * 15_000, "--format", fmt], capsys)
    assert (code, err) == (0, "")
    assert _int_digit_limit() == default_digit_limit
    if fmt == "json":
        expected = json.loads(out)["results"]["expected_tosses"]
    elif fmt == "csv":
        expected = next(csv.DictReader(io.StringIO(out)))["expected_tosses"]
    else:
        line = next(line for line in out.splitlines() if line.startswith("expected"))
        expected = line.split()[-1]
    # Decimal(str) is not bound by the limit; int(str) would be.
    assert Decimal(expected) == 2**15_001 - 2


def test_dist_rejects_horizon_below_length(capsys):
    code, _, err = run(["dist", "1101", "--horizon", "3"], capsys)
    assert code == 1
    assert "horizon" in err


def test_dist_accepts_a_horizon_equal_to_the_length(capsys):
    # the edge of the refusal above: one row, the game that ends on toss m
    code, out, err = run(["dist", "1101", "--horizon", "4", "--format", "csv"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["4,1,1/16,0.0625,0.0625,0.9375"]


class _CountingSink(io.TextIOBase):
    """A stdout that keeps nothing and counts the characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_dist_holds_under_one_and_a_half_times_its_output(fmt, monkeypatch):
    # The rows' cells are about one copy of the output (0.7x to 1.2x on
    # Python 3.11).  A second whole copy, such as a buffer, a joined string
    # or a list of the aligned lines, would take the peak past 1.5x.
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["dist", "11", "--horizon", "2000", "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 1.5 * sink.chars


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_dist_streams_csv_and_json_rows(fmt, monkeypatch):
    # Each row is written as it is computed, so the peak is about one row
    # and the engines' last few terms.  Holding the rows' cells takes about
    # one copy of the output.
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["dist", "11", "--horizon", "4000", "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 0.1 * sink.chars


def _dist_lines(pattern, horizon, fmt):
    """dist's output as lines with their ends, so a mismatch reports one line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["dist", pattern, "--horizon", str(horizon), "--format", fmt])
    assert code == 0
    return out.getvalue().splitlines(keepends=True)


def _reference_lines(pattern, horizon, fmt):
    return reference_dist(pattern, horizon, fmt).splitlines(keepends=True)


def _json_lines(lines):
    return (json.dumps(json.loads("".join(lines)), indent=2) + "\n").splitlines(True)


@pytest.mark.parametrize(
    "pattern, horizon, fmt",
    [("111111", 2000, "json"), ("10101", 1000, "text"), ("110", 500, "csv")],
)
def test_dist_far_output_matches_reference_renderer(pattern, horizon, fmt):
    # The benchmark's three dist commands, far past the golden files' horizons.
    lines = _dist_lines(pattern, horizon, fmt)
    assert lines == _reference_lines(pattern, horizon, fmt)
    if fmt == "json":
        assert lines == _json_lines(lines)


@st.composite
def _typed_patterns(draw):
    symbols = draw(st.sampled_from(["01", "HT", "ht"]))
    typed = draw(st.text(symbols, min_size=1, max_size=12))
    return typed, draw(st.integers(len(typed), 300))


@given(_typed_patterns())
@settings(max_examples=40, deadline=None)
def test_dist_output_matches_reference_renderer(case):
    typed, horizon = case
    for fmt in ("text", "csv", "json"):
        lines = _dist_lines(typed, horizon, fmt)
        assert lines == _reference_lines(typed, horizon, fmt), fmt
        if fmt == "json":
            assert lines == _json_lines(lines)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_dist_ignores_the_callers_decimal_context(fmt):
    # A context with 5 digits rounds every longer result, and like the
    # default it does not trap Inexact, so arithmetic done in the caller's
    # context would change the digits without an error.
    with decimal.localcontext():
        decimal.getcontext().prec = 5
        lines = _dist_lines("10101", 200, fmt)
    assert lines == _reference_lines("10101", 200, fmt)


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


def test_verify_refuses_an_oracle_n_above_the_ceiling_before_enumerating(
    capsys, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("checked a pattern before refusing --oracle-n")

    for name in ("verify_identities", "exhaustive_tally"):
        monkeypatch.setattr(cli, name, refuse)
    for n in ("25", "40"):  # one past the ceiling, and far past it
        for argv in (
            ["verify", "--lengths", "1..1", "--horizon", "2", "--oracle-n", n],
            ["verify", "--lengths", "1..12", "--oracle-n", n],
        ):
            code, out, err = run(argv, capsys)
            assert (code, out) == (1, "")
            assert err == f"error: n={n} exceeds the enumeration ceiling 24\n"


def test_verify_accepts_an_oracle_n_at_the_ceiling(capsys):
    argv = ["verify", "--lengths", "1..1", "--horizon", "2", "--oracle-n", "24"]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[0].endswith("enumeration up to n=24")


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
    # one below twice the largest length
    code, out, err = run(["verify", "--lengths", "2..6", "--horizon", "11"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: horizon must be >= twice the largest length (12), got 11\n"


def test_verify_accepts_a_horizon_of_twice_the_largest_length(capsys):
    code, out, err = run(["verify", "--lengths", "2..6", "--horizon", "12"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == (
        "checked 62 canonical patterns (lengths 2..6), horizon 12,"
        " enumeration up to n=10"
    )


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


def test_a_failing_command_creates_no_output_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    argv = ["dist", "1101", "--horizon", "3", "--output", str(target)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert "horizon" in err
    assert not target.exists()


class _RowsRead(Exception):
    """Raised where a test's rows are read; main handles no such error."""


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "name, argv",
    [
        ("expect-10101-stake5", ["expect", "10101", "--stake", "5"]),
        ("simulate-11-seed9", ["simulate", "11", "--trials", "2000", "--seed", "9"]),
    ],
    ids=["expect", "simulate"],
)
def test_text_and_json_never_shape_a_csv_cell(name, argv, fmt, capsys, monkeypatch):
    def refuse(value):
        raise _RowsRead(value)

    monkeypatch.setattr(cli, "_csv_cell", refuse)
    code, out, err = run([*argv, "--format", fmt], capsys)
    assert (code, err) == (0, "")
    golden = Path(__file__).parent / "golden" / f"{name}.{fmt}.out"
    assert out.encode() == golden.read_bytes()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_only_csv_and_dist_read_a_records_rows(fmt):
    def rows():
        raise _RowsRead
        yield

    record = cli._Record({"pattern": "1"}, {"length": 1}, ["length"], rows(),
                         lambda: ["length  1"], 0)
    out = io.StringIO()
    cli._render("expect", fmt, record, out)
    want = {
        "text": "length  1\n",
        "json": '{\n  "command": "expect",\n  "inputs": {\n    "pattern": "1"\n  },\n'
        '  "results": {\n    "length": 1\n  }\n}\n',
    }
    assert out.getvalue() == want[fmt]


@pytest.mark.parametrize(
    "target, reason",
    [
        pytest.param("missing/out.txt", "No such file or directory", id="missing-dir"),
        # An absolute target replaces tmp_path.  /dev/full fails the writes.
        pytest.param(
            "/dev/full",
            "No space left on device",
            id="dev-full",
            marks=pytest.mark.skipif(
                not Path("/dev/full").exists(), reason="no /dev/full on this system"
            ),
        ),
    ],
)
def test_output_write_failure_is_a_usage_error(target, reason, tmp_path, capsys):
    code, out, err = run(["expect", "11", "--output", str(tmp_path / target)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert reason in err


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


def _near(*limits):
    """Numerals one below, at and one past each limit."""
    return st.sampled_from(sorted({v + d for v in limits for d in (-1, 0, 1)}))


# text argparse's int() refuses, or reads as a digit ("\u0663" is 3), and a
# numeral past Python's int <-> str digit limit
_NOT_A_NUMERAL = st.sampled_from(["", "x", "1.5", "1e3", "\u0663", "--", "9" * 5000])
_SHORT_PATTERN = st.one_of(
    st.text("01", min_size=1, max_size=6),
    st.text("HTht", min_size=1, max_size=6),
    st.text("01HTht2 -", max_size=6),  # mixed alphabets, bad symbols, blanks
    st.text(max_size=3),
)


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = [command]

    def option(name, numerals):
        if draw(st.booleans()):
            argv.extend([name, str(draw(st.one_of(numerals, _NOT_A_NUMERAL)))])

    def lengths(ends):
        lo, hi = draw(ends), draw(ends)
        text = draw(st.sampled_from([f"{lo}..{hi}", str(hi), f"{lo}..", "..", "a..b"]))
        argv.extend(["--lengths", text])
        return hi

    if command == "expect":
        # the exact answer is cheap at any length, so long patterns run too
        argv.append(draw(st.one_of(_SHORT_PATTERN, st.text("01", min_size=60, max_size=70))))
        option("--stake", st.one_of(_near(0), st.just(2**64)))
    elif command == "table":
        lengths(_near(2, cli._MAX_LENGTH))
        if draw(st.booleans()):
            argv.append("--all-patterns")
    elif command == "dist":
        argv.append(draw(_SHORT_PATTERN))
        option("--horizon", _near(0, len(argv[1]), 40))
    elif command == "simulate":
        # a pattern past 64 tosses is refused; one just inside would never end
        argv.append(draw(st.one_of(_SHORT_PATTERN, st.text("01", min_size=65, max_size=70))))
        option("--trials", st.sampled_from([-1, 0, 1, 2, 40, 10**7 + 1, 2**64]))
        option("--seed", st.one_of(_near(0, 2**64), st.just(2**128)))
    else:
        # just inside the ceiling is drawn for table only: it is the same
        # check, and verify takes 0.4 s at length 12
        hi = lengths(st.one_of(_near(0, 1), st.just(cli._MAX_LENGTH + 1)))
        option("--horizon", _near(0, 2 * hi))
        option("--oracle-n", _near(0, cli.ENUMERATION_CEILING))
    if draw(st.booleans()):
        argv.extend(["--format", draw(st.sampled_from(["text", "csv", "json", "xml"]))])
    argv.extend(draw(st.sampled_from([[], ["-h"], ["--bogus"], ["extra"]])))
    return argv


@given(_argvs())
@settings(max_examples=300, deadline=None)
def test_no_argv_ends_in_a_traceback(argv):
    # every refusal is one line and an exit code, never an exception
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and -h
            code = exc.code
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err.getvalue()


def test_readme_expect_sample_is_what_the_cli_prints(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    prompt = "$ coinwait expect HH --stake 5\n"
    assert prompt in readme
    sample = readme.split(prompt, 1)[1].split("```", 1)[0]
    assert run(["expect", "HH", "--stake", "5"], capsys) == (0, sample, "")
