"""The CLI as a user runs it: a fresh interpreter, ``python -m coinwait.cli``.

Every other CLI test calls ``cli.main`` in a process that has already
imported the whole suite, so neither the module entry point nor what a
fresh process imports would show there.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=env, timeout=120
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_module_entry_point_matches_golden(fmt):
    extra = [] if fmt == "text" else ["--format", fmt]
    proc = run_python("-m", "coinwait.cli", "expect", "110", *extra)
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert proc.stdout == (GOLDEN / f"expect-110.{fmt}.out").read_bytes()


def test_exact_commands_never_import_numpy():
    # table is left out on purpose: a vectorised table may import numpy.
    probe = textwrap.dedent(
        """
        import sys
        import coinwait, coinwait.cli
        from coinwait.cli import main
        main(["expect", "10101"])
        main(["dist", "110", "--horizon", "20"])
        print("numpy" in sys.modules, file=sys.stderr)
        main(["simulate", "11", "--trials", "10"])
        print("numpy" in sys.modules, file=sys.stderr)
        """
    )
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr.decode().split() == ["False", "True"]
