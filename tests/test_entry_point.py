"""The CLI as a user runs it: a fresh interpreter, ``python -m coinwait.cli``.

Every other CLI test calls ``cli.main`` in a process that has already
imported the whole suite, so neither the module entry point nor what a
fresh process imports would show there.
"""

import os
import shutil
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"


def python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def run_python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=python_env(), timeout=120
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_module_entry_point_matches_golden(fmt):
    extra = [] if fmt == "text" else ["--format", fmt]
    proc = run_python("-m", "coinwait.cli", "expect", "110", *extra)
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert proc.stdout == (GOLDEN / f"expect-110.{fmt}.out").read_bytes()


def test_exact_commands_never_import_numpy():
    probe = textwrap.dedent(
        """
        import sys
        import coinwait, coinwait.cli
        from coinwait.cli import main
        main(["expect", "10101"])
        main(["table", "--lengths", "2..12"])
        main(["table", "--lengths", "2..4", "--all-patterns"])
        main(["dist", "110", "--horizon", "20"])
        main(["verify", "--lengths", "2..8"])
        print("numpy" in sys.modules, file=sys.stderr)
        main(["simulate", "11", "--trials", "10"])
        print("numpy" in sys.modules, file=sys.stderr)
        """
    )
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr.decode().split() == ["False", "True"]


PACKAGE_API = [
    "CoinwaitError", "CorrelationSet", "DyadicRational", "EmptyPatternError",
    "ExhaustiveTally", "IdentityReport", "InvalidHorizonError", "InvalidIndexError",
    "InvalidLengthError", "InvalidSymbolError", "OccurrenceCounts", "Pattern",
    "SimulationResult", "SimulationRunawayError", "TableRow", "TooLargeError",
    "WaitingTimeReport", "closed_form_tau", "complement", "correlation_set",
    "exhaustive_tally", "expected_profit", "expected_waiting_time", "fibonacci",
    "first_occurrence_distribution", "mean_via_sigma_series", "occurrence_counts",
    "parse_pattern", "patterns_of_length", "simulate", "verify_identities",
    "waiting_time_bounds", "waiting_time_report", "waiting_time_table",
]


def test_package_exports_exactly_its_api():
    # The package builds __all__ from its modules' own lists, so dropping a
    # module's star import or one entry of a module's __all__ shows here.
    probe = textwrap.dedent(
        """
        import inspect
        import coinwait
        names = {}
        exec("from coinwait import *", names)
        public = [n for n in dir(coinwait)
                  if not n.startswith("_") and not inspect.ismodule(getattr(coinwait, n))]
        print(" ".join(sorted(coinwait.__all__)))
        print(" ".join(sorted(set(names) - {"__builtins__"})))
        print(" ".join(public))
        """
    )
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr.decode()
    lines = proc.stdout.decode().splitlines()
    assert [line.split() for line in lines] == [sorted(PACKAGE_API)] * 3


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_a_reader_that_stops_early_is_no_error(fmt, unbuffered):
    # As `coinwait dist 11 --horizon 2000 | head -1` does: the reader closes
    # the pipe after a few bytes of 8 to 13 MB.  Buffered and unbuffered
    # stdout meet the closed pipe in different writes.
    extra = [] if fmt == "text" else ["--format", fmt]
    env = {**python_env(), "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.Popen(
        [sys.executable, "-m", "coinwait.cli", "dist", "11", "--horizon", "2000", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.read(10)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")


def test_a_reader_that_reads_nothing_is_no_error():
    # As `coinwait expect 110 | true` does.  The short output is still in
    # stdout's buffer when the command is done, so it meets the closed pipe
    # at the last flush, which must come before exit.
    proc = subprocess.Popen(
        [sys.executable, "-m", "coinwait.cli", "expect", "110"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**python_env(), "PYTHONUNBUFFERED": ""},
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")


def test_ctrl_c_ends_a_command_with_one_line_and_exit_130():
    # As Ctrl-C on `coinwait simulate 1^34 --trials 1`, a game of about 2**35
    # tosses that runs for hours.  The child says when it is about to call
    # main, so the interrupt lands inside the command, not in start-up.
    probe = textwrap.dedent(
        """
        import sys
        from coinwait.cli import main
        print("ready", file=sys.stderr, flush=True)
        sys.exit(main(["simulate", "1" * 34, "--trials", "1"]))
        """
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", probe],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=python_env(),
    )
    try:
        assert proc.stderr.readline() == b"ready\n"
        time.sleep(1)  # well into the simulation's rounds
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait(timeout=60)
    assert (proc.returncode, out) == (130, b"")
    assert err.decode().splitlines() == ["interrupted"]


def test_verify_runs_a_far_horizon_under_an_address_space_cap():
    # Every sigma and tau of 11 out to n = 40000 take over 100 MB together,
    # which this cap cannot hold; checking the identities as the engine runs
    # holds a few terms.  verify loads no numpy; one BLAS thread would keep
    # numpy's reserved address space the same on every host if it did.
    resource = pytest.importorskip("resource")
    cap = 200_000 * 1024
    env = dict(python_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "coinwait.cli", "verify", "--lengths", "2..2",
         "--horizon", "40000"],
        capture_output=True,
        env=env,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"Traceback" not in proc.stderr
    assert proc.stdout.decode().splitlines()[-1] == "all identities hold"


def ci_console_lines() -> list[str]:
    """The shell lines of the console-script step in CI's tier1 workflow."""
    lines = (ROOT / ".github" / "workflows" / "tier1.yml").read_text().splitlines()
    start = lines.index("      - name: Run the installed coinwait console script")
    run = next(i for i in range(start, len(lines)) if lines[i].strip() == "run: |")
    depth = len(lines[run]) - len(lines[run].lstrip())
    block = []
    for line in lines[run + 1 :]:
        if line.strip() and len(line) - len(line.lstrip()) <= depth:
            break
        block.append(line.strip())
    return [line for line in block if line]


def test_ci_console_script_lines_exit_0(tmp_path):
    # The same lines CI runs, each under bash -o pipefail, with a `coinwait`
    # on PATH that runs this tree's module, so a line that no longer matches
    # its golden file or the CLI fails here first.  The installed script
    # itself runs only on a hosted runner; this does not replace that run.
    bash = shutil.which("bash")
    if bash is None:
        pytest.skip("CI runs the console-script step under bash")
    shim = tmp_path / "coinwait"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m coinwait.cli "$@"\n')
    shim.chmod(0o755)
    env = {**python_env(), "PATH": os.pathsep.join([str(tmp_path), os.environ["PATH"]])}
    lines = ci_console_lines()
    assert lines and all(line.startswith("coinwait ") for line in lines)
    failed = []
    for line in lines:
        proc = subprocess.run(
            [bash, "-o", "pipefail", "-c", line],
            cwd=ROOT,
            env=env,
            capture_output=True,
            timeout=300,
        )
        if proc.returncode:
            failed.append((line, proc.returncode, proc.stderr.decode()[-400:]))
    assert failed == []
