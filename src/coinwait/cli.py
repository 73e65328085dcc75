"""Command-line surface for the waiting-time library.

Five subcommands cover the library's capabilities:

    expect    exact waiting time, overlaps and wager profit for one pattern
    table     every canonical pattern of given lengths grouped by average
    dist      exact first-occurrence distribution out to a horizon
    simulate  seeded Monte Carlo games compared against the exact value
    verify    exact identity checks plus brute-force cross-validation

Each command renders as aligned text (default), CSV or JSON via --format,
written to stdout or to --output.  Exit codes: 0 success, 1 usage or parse
error, 2 verification failure, 3 internal guard tripped.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import sys
from collections import namedtuple
from pathlib import Path

from .counting import extend_counts, occurrence_counts, verify_identities
from .dyadic import EXACT_DECIMAL, DyadicRational, decimal_text
from .errors import CoinwaitError, SimulationRunawayError
from .oracle import ENUMERATION_CEILING, exhaustive_tally, simulate
from .pattern import (
    expected_waiting_time, parse_pattern, patterns_of_length, waiting_time_report
)
from .table import TableRow, waiting_time_table

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION_FAILED = 2
EXIT_INTERNAL_GUARD = 3

# JSON numbers above 53 bits would be corrupted by double-precision readers,
# so every larger integer is emitted as a decimal string.
_JSON_SAFE_INT = (1 << 53) - 1

# table and verify enumerate the 2**(L-1) canonical patterns of each length L,
# so each length past 12 at least doubles their cost.  For 2..12, table takes
# 0.06 s and verify 0.8 s in process (2 cores, Python 3.11.7).
_MAX_LENGTH = 12


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit with code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _length_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a length N or a range MIN..MAX, got {text!r}"
        ) from None
    return lo, hi


def _checked_lengths(lengths: tuple[int, int], lowest: int) -> tuple[int, int]:
    lo, hi = lengths
    if not (lowest <= lo <= hi <= _MAX_LENGTH):
        raise CoinwaitError(
            f"lengths must satisfy {lowest} <= min <= max <= {_MAX_LENGTH},"
            f" got {lo}..{hi}"
        )
    return lo, hi


# Built once per process: parse_args returns a fresh namespace every call,
# and help text is formatted when printed, so nothing carries over.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "csv", "json"),
        default="text",
        help="output format (default: text)",
    )
    common.add_argument(
        "--output",
        type=Path,
        default=None,
        metavar="PATH",
        help="write output to PATH instead of stdout",
    )

    parser = _Parser(
        prog="coinwait",
        description="Exact waiting times for heads/tails patterns on a fair coin.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_expect = sub.add_parser(
        "expect", parents=[common], help="exact waiting time for one pattern"
    )
    p_expect.add_argument("pattern", help="pattern text, 0/1 or T/H")
    p_expect.add_argument(
        "--stake", type=int, default=None, help="up-front stake for the wager view"
    )

    lengths = _Parser(add_help=False)
    lengths.add_argument(
        "--lengths",
        type=_length_range,
        default=(2, 6),
        metavar="MIN..MAX",
        help=f"pattern lengths (default: 2..6, at most {_MAX_LENGTH})",
    )

    p_table = sub.add_parser(
        "table", parents=[common, lengths], help="group patterns by exact average"
    )
    p_table.add_argument(
        "--all-patterns",
        action="store_true",
        help="include the 0-leading complements as well",
    )

    p_dist = sub.add_parser(
        "dist", parents=[common], help="exact first-occurrence distribution"
    )
    p_dist.add_argument("pattern", help="pattern text, 0/1 or T/H")
    p_dist.add_argument(
        "--horizon", type=int, default=32, help="largest game length listed"
    )

    p_sim = sub.add_parser(
        "simulate", parents=[common], help="Monte Carlo games vs the exact value"
    )
    p_sim.add_argument("pattern", help="pattern text, 0/1 or T/H")
    p_sim.add_argument(
        "--trials", type=int, default=100_000, help="number of games (default 100000)"
    )
    p_sim.add_argument("--seed", type=int, default=1, help="PRNG seed (default 1)")

    p_verify = sub.add_parser(
        "verify",
        parents=[common, lengths],
        help="exact identities and oracle cross-checks",
    )
    p_verify.add_argument(
        "--horizon", type=int, default=64, help="identity horizon (default 64)"
    )
    p_verify.add_argument(
        "--oracle-n",
        type=int,
        default=10,
        help=f"exhaustive enumeration bound (default 10, at most {ENUMERATION_CEILING};"
        " the tally runs at max(length, oracle-n))",
    )
    return parser


# -- the one record and its renderer ------------------------------------


# A command's answer: JSON inputs and results, CSV header (keys of each row dict)
# and rows, a callable that builds the text lines on demand, and the exit status.
_Record = namedtuple("_Record", "inputs results header rows text status")


def _json_safe(value):
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, int) and not isinstance(value, bool):
        return value if abs(value) <= _JSON_SAFE_INT else str(value)
    return value


def _csv_cell(value):
    # csv itself writes None as an empty cell and a float as its repr.
    return ";".join(str(item) for item in value) if isinstance(value, list) else value


def _aligned(rows, right=()) -> list[str]:
    cells = [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    return [
        "  ".join(
            cell.rjust(widths[i]) if i in right else cell.ljust(widths[i])
            for i, cell in enumerate(row)
        ).rstrip()
        for row in cells
    ]


def _render(command: str, fmt: str, record: _Record) -> str:
    if fmt == "json":
        payload = dict(command=command, inputs=record.inputs, results=record.results)
        return json.dumps(_json_safe(payload), indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(record.header)
        for row in record.rows:
            writer.writerow([_csv_cell(row[key]) for key in record.header])
        return buf.getvalue()
    return "\n".join(record.text()) + "\n"


# -- command handlers --------------------------------------------------


def _cmd_expect(args) -> _Record:
    # A negative stake is rejected by expected_profit with a ValueError.
    report = waiting_time_report(parse_pattern(args.pattern), args.stake)
    p = report.pattern
    results = {
        "pattern": str(p),
        "heads_tails": p.heads_tails(),
        "length": len(p),
        "overlaps": list(report.correlation.overlap_lengths()),
        "expected_tosses": report.expected_tosses,
        "lower_bound": report.lower_bound,
        "upper_bound": report.upper_bound,
        "stake": report.stake,
        "expected_profit": report.expected_profit,
    }

    def text():
        lines = [
            ["pattern", f"{p} ({p.heads_tails()})"],
            ["length", len(p)],
            ["overlaps (c_j=1)", " ".join(str(j) for j in results["overlaps"])],
            ["expected tosses", report.expected_tosses],
            ["bounds", f"{report.lower_bound}..{report.upper_bound}"],
        ]
        if report.stake is not None:
            lines.append(["stake", report.stake])
            lines.append(["expected profit", f"{report.expected_profit:+d}"])
        return _aligned(lines)

    header = [key for key in results if key != "heads_tails"]
    inputs = {"pattern": args.pattern, "stake": args.stake}
    return _Record(inputs, results, header, [results], text, EXIT_OK)


def _cmd_table(args) -> _Record:
    lo, hi = _checked_lengths(args.lengths, lowest=2)
    rows = waiting_time_table(range(lo, hi + 1), include_complements=args.all_patterns)
    results = [{k: getattr(row, k) for k in TableRow.__slots__} for row in rows]
    flat = [{**row, "pattern": p} for row in results for p in row["patterns"]]

    def text():
        cells = [[row.length, row.average, " ".join(row.patterns)] for row in rows]
        lines = _aligned([["length", "average", "patterns"], *cells], right={0, 1})
        if not args.all_patterns:
            lines += [
                "",
                "only patterns starting with 1 are listed; each 0-leading"
                " complement (heads and tails swapped) has the same average",
            ]
        return lines

    inputs = {"lengths": f"{lo}..{hi}", "all_patterns": bool(args.all_patterns)}
    header = ["length", "average", "pattern"]
    return _Record(inputs, results, header, flat, text, EXIT_OK)


def _cmd_dist(args) -> _Record:
    p = parse_pattern(args.pattern)
    m = len(p)
    if args.horizon < m:
        raise CoinwaitError(
            f"horizon must be >= pattern length {m}, got {args.horizon}"
        )
    counts = occurrence_counts(p, args.horizon)
    exact = EXACT_DECIMAL
    # k / 2**n is k * 5**n / 10**n: one running power of five scales both
    # counts of a row into base 10, where their digits are written out.
    five_power = exact.power(5, m)
    header = ["n", "tau", "probability", "decimal", "cumulative", "residual"]
    rows = []
    for n in range(m, args.horizon + 1):
        tau = counts.tau[n]
        prob = exact.multiply(tau, five_power)
        res = exact.multiply(counts.sigma[n], five_power)
        # cumulative P(T <= n) = 1 - sigma_n / 2**n, the telescoping identity
        cum = exact.subtract(exact.scaleb(1, n), res)
        cells = [n, tau, DyadicRational(tau, n).fraction_str(), decimal_text(prob, n),
                 decimal_text(cum, n), decimal_text(res, n)]
        rows.append(dict(zip(header, cells)))
        five_power = exact.multiply(five_power, 5)
    residual = DyadicRational(counts.sigma[-1], args.horizon).fraction_str()

    def text():
        return [
            f"pattern {p} ({p.heads_tails()}), horizon {args.horizon}",
            *_aligned([header, *(row.values() for row in rows)], right={0, 1}),
            "",
            f"mass not yet seen by the horizon: {residual} = {rows[-1]['residual']}",
        ]

    inputs = {"pattern": args.pattern, "horizon": args.horizon}
    results = {"rows": rows, "residual": residual}
    return _Record(inputs, results, header, rows, text, EXIT_OK)


def _cmd_simulate(args) -> _Record:
    p = parse_pattern(args.pattern)
    result = simulate(p, args.trials, args.seed)
    exact = expected_waiting_time(p)
    spread = result.sample_stderr
    z = (result.sample_mean - exact) / spread if spread > 0 else None
    results = {
        "pattern": str(p),
        "trials": result.trials,
        "seed": result.seed,
        "generator": result.generator,
        "sample_mean": result.sample_mean,
        "sample_stderr": result.sample_stderr,
        "exact": exact,
        "z_score": z,
        "max_game_length_seen": result.max_game_length_seen,
    }

    def text():
        return _aligned([
            ["pattern", f"{p} ({p.heads_tails()})"],
            ["trials", result.trials],
            ["seed", f"{result.seed} ({result.generator})"],
            ["sample mean", f"{result.sample_mean:.6f}"],
            ["std error", f"{result.sample_stderr:.6f}"],
            ["exact expectation", exact],
            ["z-score", "n/a" if z is None else format(z, "+.3f")],
            ["longest game seen", result.max_game_length_seen],
        ])

    inputs = {"pattern": args.pattern, "trials": args.trials, "seed": args.seed}
    return _Record(inputs, results, list(results), [results], text, EXIT_OK)


def _verify_one(pattern, horizon: int, oracle_n: int) -> dict:
    m = len(pattern)
    report = verify_identities(pattern, horizon)
    n_top = max(m, oracle_n)
    counts = extend_counts(report.counts, max(horizon, n_top))
    # One tally at n_top, each count compared once.  The engine's sigma
    # follows by doubling from sigma_{m-1} = 2**(m-1) and its taus, so its
    # sigma_n below n_top is fixed by the taus compared here.
    tally = exhaustive_tally(pattern, n_top)
    oracle_failures = [
        f"tau at n={n}"
        for n, tau in tally.first_occurrence_counts.items()
        if tau != counts.tau[n]
    ]
    if tally.avoiding_count != counts.sigma[n_top]:
        oracle_failures.append(f"sigma at n={n_top}")
    failures = (
        [f"doubling at n={n}" for n in report.doubling_failures]
        + [f"expansion at n={n}" for n in report.expansion_failures]
        + [f"telescoping at n={n}" for n in report.telescoping_failures]
        + oracle_failures
    )
    return {
        "pattern": str(pattern),
        "length": m,
        "doubling_ok": not report.doubling_failures,
        "expansion_ok": not report.expansion_failures,
        "telescoping_ok": not report.telescoping_failures,
        "oracle_ok": not oracle_failures,
        "failures": failures,
    }


def _cmd_verify(args) -> _Record:
    lo, hi = _checked_lengths(args.lengths, lowest=1)
    if args.horizon < 2 * hi:
        raise CoinwaitError(
            f"horizon must be >= twice the largest length ({2 * hi}),"
            f" got {args.horizon}"
        )
    if args.oracle_n < 1:
        raise CoinwaitError(f"oracle-n must be >= 1, got {args.oracle_n}")
    results = [
        _verify_one(p, args.horizon, args.oracle_n)
        for length in range(lo, hi + 1)
        for p in patterns_of_length(length)
    ]
    failed = [r for r in results if r["failures"]]

    def text():
        return [
            f"checked {len(results)} canonical patterns (lengths {lo}..{hi}),"
            f" horizon {args.horizon}, enumeration up to"
            f" n={max(hi, args.oracle_n)}",
            *(f"FAIL {r['pattern']}: " + ", ".join(r["failures"]) for r in failed),
            "verification FAILED (see above)" if failed else "all identities hold",
        ]

    header = [key for key in results[0] if key != "failures"]
    inputs = dict(lengths=f"{lo}..{hi}", horizon=args.horizon, oracle_n=args.oracle_n)
    status = EXIT_VERIFICATION_FAILED if failed else EXIT_OK
    summary = {"patterns": results, "all_ok": not failed}
    return _Record(inputs, summary, header, results, text, status)


_COMMANDS = {
    "expect": _cmd_expect,
    "table": _cmd_table,
    "dist": _cmd_dist,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


@contextlib.contextmanager
def _no_int_digit_limit():
    """Lift Python's limit on int <-> str digits, and restore it on exit.

    Exact answers can be far longer than the default 4300 digits.  Pythons
    older than the limit have neither function and need nothing lifted.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def main(argv=None) -> int:
    # Arguments are parsed under the digit limit, which guards against huge
    # numerals typed in; only the exact work and its output run without it.
    args = _build_parser().parse_args(argv)
    try:
        with _no_int_digit_limit():
            record = _COMMANDS[args.command](args)
            text = _render(args.command, args.format, record)
            if args.output is None:
                sys.stdout.write(text)
            else:
                args.output.write_text(text, encoding="utf-8")
    except SimulationRunawayError as exc:
        print(f"internal guard tripped: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_GUARD
    except (CoinwaitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return record.status


if __name__ == "__main__":
    sys.exit(main())
