"""Byte-for-byte golden outputs of the CLI: stdout, stderr and exit code.

Every case runs ``coinwait.cli.main(argv)`` in process.  Its stdout must
equal ``golden/<case>.out`` exactly, and its exit code and stderr must equal
the entry for the case in ``golden/status.json``.  Each command case runs
once more with ``--output``, and the file must hold the same bytes.  The
files pin the bytes each command prints in each format, so that refactors
of the CLI can be checked against them.

Record the files again only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from coinwait import CorrelationSet, IdentityReport, correlation_set
from coinwait import cli, counting

from _oracles import csv_rewritten

GOLDEN = Path(__file__).parent / "golden"

# (name, argv without --format); each runs in all three formats.
COMMANDS = [
    ("expect-10101-stake5", ["expect", "10101", "--stake", "5"]),
    ("expect-ones60", ["expect", "1" * 60]),
    ("expect-110", ["expect", "110"]),
    ("expect-HH-stake0", ["expect", "HH", "--stake", "0"]),
    ("table-2-4", ["table", "--lengths", "2..4"]),
    ("table-2-4-all", ["table", "--lengths", "2..4", "--all-patterns"]),
    ("table-3", ["table", "--lengths", "3"]),
    ("dist-01-h6", ["dist", "01", "--horizon", "6"]),
    ("dist-HTH-h40", ["dist", "HTH", "--horizon", "40"]),
    ("dist-1101-h20", ["dist", "1101", "--horizon", "20"]),
    ("simulate-11-seed9", ["simulate", "11", "--trials", "2000", "--seed", "9"]),
    ("simulate-1-one-trial", ["simulate", "1", "--trials", "1"]),
    # blocks of 218 rounds that settle several games each
    ("simulate-ones12-300", ["simulate", "1" * 12, "--trials", "300", "--seed", "5"]),
    # the same blocks for a pattern with a tail (a 0 among its bits)
    ("simulate-tail10-300", ["simulate", "1011010011", "--trials", "300", "--seed", "5"]),
    ("verify-1-3", ["verify", "--lengths", "1..3", "--horizon", "8", "--oracle-n", "3"]),
    # verify with an identity check that always reports a failure (exit 2)
    ("verify-broken", ["verify", "--lengths", "2..2", "--horizon", "16", "--oracle-n", "4"]),
    # verify with an engine that sees no proper overlaps: only the tally can
    # tell, and it does for 101, 111, 1010 and 1111 (exit 2)
    ("verify-no-overlaps", ["verify", "--lengths", "3..4", "--horizon", "8", "--oracle-n", "6"]),
]

# (name, argv); usage errors print nothing to stdout, so text format only.
ERRORS = [
    ("error-bad-symbol", ["expect", "21"]),
    ("error-negative-stake", ["expect", "11", "--stake", "-2"]),
    ("error-lengths-reversed", ["table", "--lengths", "5..3"]),
    ("error-lengths-not-a-range", ["table", "--lengths", "abc"]),
    ("error-table-too-long", ["table", "--lengths", "2..13"]),
    ("error-verify-too-long", ["verify", "--lengths", "12..13"]),
    ("error-dist-short-horizon", ["dist", "1101", "--horizon", "3"]),
    ("error-zero-trials", ["simulate", "11", "--trials", "0"]),
    ("error-verify-short-horizon", ["verify", "--lengths", "2..6", "--horizon", "10"]),
    ("error-unknown-command", ["frobnicate"]),
    ("error-no-command", []),
]

CASES = {
    **{
        f"{name}.{fmt}": argv + ([] if fmt == "text" else ["--format", fmt])
        for name, argv in COMMANDS
        for fmt in ("text", "csv", "json")
    },
    **{f"{name}.text": argv for name, argv in ERRORS},
}


def _always_broken(p, horizon):
    return IdentityReport(
        pattern=p,
        horizon=horizon,
        correlation=correlation_set(p),
        doubling_failures=(3,),
        expansion_failures=(),
        telescoping_failures=(5, 7),
    )


def _full_overlap_only(p):
    return CorrelationSet((0,) * (len(p) - 1) + (1,))


def run_case(case: str, extra=()) -> tuple[int, str, str]:
    """Run one case, with extra arguments, and return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        # argparse wraps usage lines to the terminal width
        stack.enter_context(mock.patch.dict(os.environ, {"COLUMNS": "80"}))
        if case.startswith("verify-broken."):
            stack.enter_context(mock.patch.object(cli, "verify_identities", _always_broken))
        if case.startswith("verify-no-overlaps."):
            stack.enter_context(
                mock.patch.object(counting, "correlation_set", _full_overlap_only)
            )
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = cli.main([*CASES[case], *extra])
        except SystemExit as exc:  # argparse usage failures
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _load_status() -> dict:
    return json.loads((GOLDEN / "status.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_bytes_match_golden(case):
    code, out, err = run_case(case)
    want = _load_status()[case]
    assert out.encode() == (GOLDEN / f"{case}.out").read_bytes()
    assert err == want["stderr"]
    assert code == want["exit"]
    if case.endswith(".csv"):
        # no cell needs quoting: csv.writer would write the same bytes, and
        # every row has as many cells as the header
        assert csv_rewritten(out) == out
        assert len({len(row) for row in csv.reader(io.StringIO(out))}) == 1


@pytest.mark.parametrize(
    "case", [case for case in sorted(CASES) if case.split(".")[0] in dict(COMMANDS)]
)
def test_output_file_matches_golden(case, tmp_path):
    target = tmp_path / "out"
    code, out, err = run_case(case, ["--output", str(target)])
    want = _load_status()[case]
    assert target.read_bytes() == (GOLDEN / f"{case}.out").read_bytes()
    assert (code, out, err) == (want["exit"], "", want["stderr"])


def test_every_golden_file_has_a_case():
    recorded = {path.name[: -len(".out")] for path in GOLDEN.glob("*.out")}
    assert recorded == set(CASES)
    assert set(_load_status()) == set(CASES)


def record():
    GOLDEN.mkdir(exist_ok=True)
    status = {}
    for case in sorted(CASES):
        code, out, err = run_case(case)
        (GOLDEN / f"{case}.out").write_bytes(out.encode())
        status[case] = {"exit": code, "stderr": err}
    text = json.dumps(status, indent=2, sort_keys=True) + "\n"
    (GOLDEN / "status.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    record()
