"""The benchmark's workloads: operation lists drawn from a seed, each op gated.

An operation is one call into coinwait, either in-process through
``coinwait.cli.main(argv)`` with stdout captured, or straight into a public
function of ``pattern``, ``table``, ``counting`` or ``oracle``.  Its gate
runs after the timed call: exact answers are compared with digests of the
outputs recorded at the seed commit (``golden.json``) or with the
independent computations in ``reference.py``; simulations must land within
``Z_LIMIT`` standard errors of the exact mean.

Functions are looked up on their modules at call time, so the span
wrappers that ``tracing`` installs are seen by every operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from coinwait import cli, counting, oracle, pattern, table
from coinwait.pattern import Pattern

import reference

GOLDEN_PATH = Path(__file__).with_name("golden.json")
FORMATS = ("text", "csv", "json")

# A simulated mean this many standard errors from the exact mean fails its
# gate: for a normal sample mean that is a 2e-9 chance per operation.
Z_LIMIT = 6.0

# Fixed-input CLI calls whose stdout digests live in golden.json.
FAR_CLI = (
    ("dist", "111111", "--horizon", "2000", "--format", "json"),
    ("dist", "10101", "--horizon", "1000"),
    ("dist", "110", "--horizon", "500", "--format", "csv"),
)
WIDE_CLI = tuple(("table", "--lengths", "2..12", "--format", f) for f in FORMATS) + (
    ("verify", "--lengths", "2..8"),
)
EXPECT_MAX_LEN = 10
WIDE_TABLE_LENGTHS = range(2, 17)
WIDE_TABLE_KEY = "waiting_time_table(range(2, 17))"


@dataclass
class Op:
    """One timed call and the gate its result must pass.

    The work fields count what a successful call delivers; the benchmark's
    throughput figures divide them by the time of the calls that declare
    them.
    """

    kind: str  # the layer function called, e.g. "cli.dist" or "oracle.simulate"
    label: str  # the call with its inputs, for failure reports
    layer: str  # layer charged with a failure that no traced span claims
    call: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when correct, else the reason
    terms: int = 0  # sigma/tau terms, one pattern at one n
    patterns: int = 0  # patterns answered by expect, table or verify
    games: int = 0  # simulated games
    strings: int = 0  # strings enumerated


@dataclass(frozen=True)
class CliResult:
    stdout: bytes


class CliExitError(Exception):
    """coinwait's CLI returned a non-zero exit status."""


def run_cli(argv: tuple[str, ...]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(list(argv))
    if status != 0:
        raise CliExitError(f"exit {status}: {err.getvalue().strip()[:200]}")
    return CliResult(out.getvalue().encode())


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def table_digest(rows) -> str:
    flat = [[r.length, r.average, list(r.patterns)] for r in rows]
    return digest(json.dumps(flat).encode())


def canonical_patterns(max_len: int) -> list[str]:
    """Every pattern of length 1..max_len that starts with 1, as 0/1 text."""
    return [
        format(v, f"0{n}b") for n in range(1, max_len + 1) for v in range(1 << (n - 1), 1 << n)
    ]


def expect_argv(text: str, fmt: str) -> tuple[str, ...]:
    return ("expect", text, "--format", fmt)


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


# -- gates ------------------------------------------------------------------


def _stdout_is(expected: str) -> Callable[[CliResult], str | None]:
    def check(r: CliResult) -> str | None:
        return None if digest(r.stdout) == expected else "stdout differs from the recorded output"

    return check


def _equals(expected) -> Callable[[Any], str | None]:
    return lambda value: None if value == expected else f"got {value!r:.60}, want {expected!r:.60}"


def _counts_match(bits: tuple[int, ...], horizon: int):
    def check(c) -> str | None:
        if c.pattern.bits != bits or c.horizon != horizon:
            return "wrong pattern or horizon"
        if len(c.sigma) != horizon + 1 or len(c.tau) != horizon + 1:
            return "wrong sequence length"
        for n, sigma, tau in reference.sigma_tau(bits, horizon):
            if c.sigma[n] != sigma or c.tau[n] != tau:
                return f"sigma/tau differ at n={n}"
        return None

    return check


def _series_match(bits: tuple[int, ...], horizon: int):
    expected = reference.sigma_series(bits, horizon)
    return lambda d: None if (d.numerator, d.exponent) == expected else "partial sum differs"


def _identities_hold(bits: tuple[int, ...], horizon: int):
    overlaps = tuple(reference.overlap_lengths(bits))

    def check(r) -> str | None:
        if r.horizon != horizon or r.correlation.overlap_lengths() != overlaps:
            return "wrong horizon or overlaps"
        return None if r.all_hold else "an identity failed"

    return check


def _tally_matches(bits: tuple[int, ...], n: int):
    m = len(bits)

    def check(t) -> str | None:
        if t.classified_total() != 1 << n:
            return "classified total is not 2**n"
        if sorted(t.first_occurrence_counts) != list(range(m, n + 1)):
            return "wrong completion positions"
        for j, sigma, tau in reference.sigma_tau(bits, n):
            if j >= m and t.first_occurrence_counts[j] != tau:
                return f"first occurrences differ at j={j}"
        return None if t.avoiding_count == sigma else "avoiding count differs"

    return check


def _z_reason(mean: float, stderr: float, exact: int) -> str | None:
    if not stderr > 0:
        return "no spread in the sample"
    z = (mean - exact) / stderr
    return None if abs(z) <= Z_LIMIT else f"|z| = {abs(z):.2f} > {Z_LIMIT}"


def _simulation_ok(bits: tuple[int, ...], trials: int, seed: int):
    exact = reference.expected_wait(bits)

    def check(r) -> str | None:
        if r.trials != trials or r.seed != seed or r.max_game_length_seen < len(bits):
            return "wrong trials, seed or game length"
        return _z_reason(r.sample_mean, r.sample_stderr, exact)

    return check


def _cli_simulation_ok(bits: tuple[int, ...], trials: int, seed: int):
    exact = reference.expected_wait(bits)

    def check(r: CliResult) -> str | None:
        res = json.loads(r.stdout)["results"]
        if res["trials"] != trials or res["seed"] != seed or res["exact"] != exact:
            return "wrong trials, seed or exact value"
        return _z_reason(res["sample_mean"], res["sample_stderr"], exact)

    return check


# -- operation builders -----------------------------------------------------


def _bits(text: str) -> tuple[int, ...]:
    return tuple(int(ch) for ch in text)


def _draw(rng: random.Random, length: int) -> tuple[int, ...]:
    return tuple(rng.getrandbits(1) for _ in range(length))


def _cli_op(argv: tuple[str, ...], check, **work) -> Op:
    return Op("cli." + argv[0], " ".join(argv), "cli", lambda: run_cli(argv), check, **work)


def _simulate_op(bits: tuple[int, ...], trials: int, seed: int) -> Op:
    p = Pattern(bits)
    return Op(
        "oracle.simulate",
        f"simulate({''.join(map(str, bits))}, {trials}, seed={seed})",
        "oracle.sim",
        lambda: oracle.simulate(p, trials, seed),
        _simulation_ok(bits, trials, seed),
        games=trials,
    )


def _tally_op(text: str, n: int) -> Op:
    bits = _bits(text)
    p = Pattern(bits)
    return Op(
        "oracle.exhaustive_tally",
        f"exhaustive_tally({text}, {n})",
        "oracle.tally",
        lambda: oracle.exhaustive_tally(p, n),
        _tally_matches(bits, n),
        strings=1 << n,
    )


def exact_far(rng: random.Random, golden: dict) -> list[Op]:
    ops = []
    for argv in FAR_CLI:
        horizon = int(argv[argv.index("--horizon") + 1])
        ops.append(_cli_op(argv, _stdout_is(golden["cli"][" ".join(argv)]), terms=horizon + 1))
    drawn = _draw(rng, 20)
    p_drawn = Pattern(drawn)
    p_six, p_alt = Pattern(_bits("111111")), Pattern(_bits("10101"))
    long_bits = _draw(rng, 20_000)
    p_long = Pattern(long_bits)
    ops += [
        Op(
            "counting.occurrence_counts",
            f"occurrence_counts({''.join(map(str, drawn))}, 20000)",
            "counting",
            lambda: counting.occurrence_counts(p_drawn, 20_000),
            _counts_match(drawn, 20_000),
            terms=20_001,
        ),
        Op(
            "counting.mean_via_sigma_series",
            "mean_via_sigma_series(111111, 10000)",
            "counting",
            lambda: counting.mean_via_sigma_series(p_six, 10_000),
            _series_match(p_six.bits, 10_000),
            terms=10_001,
        ),
        Op(
            "counting.verify_identities",
            "verify_identities(10101, 2000)",
            "counting",
            lambda: counting.verify_identities(p_alt, 2000),
            _identities_hold(p_alt.bits, 2000),
            terms=2001,
        ),
        Op(
            "pattern.expected_waiting_time",
            "expected_waiting_time(<drawn pattern of length 20000>)",
            "pattern",
            lambda: pattern.expected_waiting_time(p_long),
            _equals(reference.expected_wait(long_bits)),
        ),
    ]
    return ops


def exact_wide(rng: random.Random, golden: dict) -> list[Op]:
    texts = canonical_patterns(EXPECT_MAX_LEN)
    rng.shuffle(texts)
    ops = []
    for i, text in enumerate(texts):
        fmt = FORMATS[i % len(FORMATS)]
        expected = golden["expect"][text][FORMATS.index(fmt)]
        ops.append(_cli_op(expect_argv(text, fmt), _stdout_is(expected), patterns=1))
    table_patterns = (1 << 12) - 2  # canonical patterns of lengths 2..12
    verify_patterns = (1 << 8) - 2  # canonical patterns of lengths 2..8, each to n=64
    for argv in WIDE_CLI:
        check = _stdout_is(golden["cli"][" ".join(argv)])
        if argv[0] == "table":
            ops.append(_cli_op(argv, check, patterns=table_patterns))
        else:
            ops.append(_cli_op(argv, check, patterns=verify_patterns, terms=verify_patterns * 65))
    ops.append(
        Op(
            "table.waiting_time_table",
            WIDE_TABLE_KEY,
            "table",
            lambda: table.waiting_time_table(WIDE_TABLE_LENGTHS),
            lambda rows: None
            if table_digest(rows) == golden["api"][WIDE_TABLE_KEY]
            else "rows differ from the recorded table",
            patterns=(1 << WIDE_TABLE_LENGTHS[-1]) - 2,
        )
    )
    return ops


def sim_bulk(rng: random.Random, golden: dict) -> list[Op]:
    cli_seed, api_seed = rng.getrandbits(32), rng.getrandbits(32)
    argv = ("simulate", "110", "--trials", "1000000", "--seed", str(cli_seed), "--format", "json")
    return [
        _cli_op(argv, _cli_simulation_ok(_bits("110"), 1_000_000, cli_seed), games=1_000_000),
        _simulate_op(_bits("111111"), 200_000, api_seed),
        _tally_op("111111", 24),
        _tally_op("10101", 20),
    ]


def sim_tail(rng: random.Random, golden: dict) -> list[Op]:
    # The last game set is valid input (mean wait 262,142 tosses), but
    # nearly every seed has a game past the simulator's 10**6-toss guard.
    return [
        _simulate_op((1,) * m, trials, rng.getrandbits(32))
        for m, trials in ((12, 2000), (14, 500), (17, 200))
    ]


WORKLOADS: dict[str, Callable[[random.Random, dict], list[Op]]] = {
    "exact-far": exact_far,
    "exact-wide": exact_wide,
    "sim-bulk": sim_bulk,
    "sim-tail": sim_tail,
}


def build(workload: str, seed: int) -> list[Op]:
    """The workload's operations; the same (workload, seed) gives the same ops."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, load_golden())
