"""coinwait benchmark: one workload, single-threaded closed loop, gated outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-far --seed 1 --seconds 20 --trace 0

Workloads are exact-far, exact-wide, sim-bulk and sim-tail (see
perfbench/README.md).  The seed draws the workload's inputs.  One caller
issues each operation after the previous one returns, and repeats the
workload's operation list (one pass) until ``--seconds`` have passed, at
least once.  Every operation's result is checked outside the timed span.

Times are process CPU time (user + system) unless named ``wall``: the
benchmark is single-threaded, and CPU time leaves out the time a shared host
takes the processor away, which makes wall time swing by tens of percent.

``--trace 0`` reports the end-to-end metrics ``setup_s`` (median CPU time of
a fresh interpreter that imports coinwait.cli and answers ``expect 1``),
``cpu_s`` (CPU time of a typical pass, see ``typical_pass``) and
``peak_rss_mb``, plus wall time and the latency and throughput of the
operations the workload runs.
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from the traced ones (see tracing.py); the spans are written to
``.perfbench/trace-<workload>-seed<seed>.json.gz``.

Every metric is printed with its unit and sample count; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed operation (an exception, a non-zero CLI exit or a
wrong answer) is counted, not fatal; ``correct`` is false only when an
answer was wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_SAMPLES = 7
SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); import coinwait.cli;"
    " sys.exit(coinwait.cli.main(['expect', '1']))"
)

# (name, unit, better) of the end-to-end metrics reported with --trace 0.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


@dataclass
class Sample:
    kind: str
    cpu: float
    wall: float
    failure: str | None


@dataclass
class Tally:
    """Outcomes of every operation run, across passes."""

    samples: list[Sample] = field(default_factory=list)
    wrong: int = 0
    failures: dict[str, str] = field(default_factory=dict)  # label -> first reason

    @property
    def failed(self) -> int:
        return sum(s.failure is not None for s in self.samples)


def run_pass(ops, tally: Tally, tracer=None) -> tuple[float, float]:
    """Run each operation once and gate it; return its summed CPU and wall time."""
    cpu = wall = 0.0
    for op in ops:
        if tracer:
            tracer.begin_op(op.kind)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result, failure = op.call(), None
        except Exception as exc:  # a failing operation is counted, not fatal
            result, failure = None, f"{type(exc).__name__}: {exc}"
        op_wall, op_cpu = time.perf_counter() - t0, time.process_time() - c0
        raised_in = tracer.end_op() if tracer else None
        cpu += op_cpu
        wall += op_wall
        if failure is None:
            try:
                reason = op.check(result)
            except Exception as exc:  # a malformed result is a wrong answer
                reason = f"gate raised {type(exc).__name__}: {exc}"
            if reason is not None:
                tally.wrong += 1
                failure = f"wrong answer: {reason}"
        if failure is not None:
            tally.failures.setdefault(op.label, failure)
            if tracer:
                tracer.counters[f"{raised_in or op.layer}.failed"] += 1
        elif tracer and hasattr(result, "stdout"):
            tracer.counters["cli.output_bytes"] += len(result.stdout)
        tally.samples.append(Sample(op.kind, op_cpu, op_wall, failure))
        del result
    return cpu, wall


def measure_setup() -> tuple[float, float, int]:
    """Median CPU and wall time of fresh interpreters importing coinwait.cli."""
    argv = [sys.executable, "-c", SETUP_CODE.format(src=str(SRC))]
    cpus, walls = [], []
    for i in range(SETUP_SAMPLES + 1):  # the first run only warms caches
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.decode()[-500:]}")
        if i:
            cpus.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
            walls.append(wall)
    return statistics.median(cpus), statistics.median(walls), len(cpus)


def typical_pass(samples: list[Sample], n_ops: int, attr: str) -> float:
    """Each operation's median time over the passes, summed over one pass.

    Per-operation medians drop a burst of host contention that hits one
    operation in a minority of passes, even when every pass has some burst.
    """
    return sum(
        statistics.median(getattr(s, attr) for s in samples[i::n_ops]) for i in range(n_ops)
    )


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def op_figures(ops, tally: Tally) -> list[tuple[str, float, str, int]]:
    """CPU latency and throughput of the operation kinds the workload runs."""
    rows = []
    cli_ms = [s.cpu * 1e3 for s in tally.samples if s.kind.startswith("cli.")]
    if cli_ms:
        rows.append(("cli_p50_ms", statistics.median(cli_ms), "ms", len(cli_ms)))
        if len(cli_ms) - math.ceil(0.9 * len(cli_ms)) >= 10:
            rows.append(("cli_p90_ms", percentile(cli_ms, 0.9), "ms", len(cli_ms)))
    # Samples are in pass order, so sample i ran ops[i % len(ops)].
    for name, attr in (("exact_terms_per_s", "terms"), ("patterns_per_s", "patterns"),
                       ("games_per_s", "games"), ("strings_per_s", "strings")):
        done = spent = 0.0
        count = 0
        for i, s in enumerate(tally.samples):
            work = getattr(ops[i % len(ops)], attr)
            if work:
                spent += s.cpu
                count += 1
                done += work if s.failure is None else 0
        if count:
            rows.append((name, done / spent, "1/s", count))
    n = len(tally.samples)
    rows.append(("fail_ratio", tally.failed / n, "ratio", n))
    return rows


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"  # not a git checkout


def print_rows(rows) -> None:
    print(f"{'metric':28s} {'value':>16s}  {'unit':8s} samples")
    for name, value, unit, count in rows:
        print(f"{name:28s} {value:16.6g}  {unit:8s} {count}")


def main(argv=None) -> int:
    import numpy

    import coinwait
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if Path(coinwait.__file__).resolve().parent.parent != SRC:
        print(f"error: imported coinwait from {coinwait.__file__}, not {SRC}", file=sys.stderr)
        return 2
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "coinwait": coinwait.__file__,
    }
    print(" ".join(f"{k}={v}" for k, v in meta.items()))

    if not args.trace:
        setup_cpu, setup_wall, setup_n = measure_setup()
    ops = workloads.build(args.workload, args.seed)
    tally = Tally()
    cpus: list[float] = []
    traced_cpus: list[float] = []
    layer_runs: list[dict] = []
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    deadline = time.perf_counter() + args.seconds
    while True:
        cpus.append(run_pass(ops, tally)[0])
        if tracer:
            if time.perf_counter() >= deadline and traced_cpus:
                break
            tracer.install()
            try:
                cpu, wall = run_pass(ops, tally, tracer)
            finally:
                tracer.uninstall()
            traced_cpus.append(cpu)
            layer_runs.append(tracer.close_pass(wall))
        if time.perf_counter() >= deadline:
            break

    for label, reason in tally.failures.items():
        print(f"FAILED {label}: {reason}")
    if tracer:
        values = {name: (statistics.median(run[name] for run in layer_runs), len(layer_runs))
                  for name, _, _ in tracing.METRICS if name != "trace_overhead_ratio"}
        values["trace_overhead_ratio"] = (
            statistics.median(traced_cpus) / statistics.median(cpus), len(traced_cpus)
        )
        listed = tracing.METRICS
        extra = [("untraced_cpu_s", statistics.median(cpus), "s", len(cpus)),
                 ("traced_cpu_s", statistics.median(traced_cpus), "s", len(traced_cpus))]
        extra += [(name, statistics.median(run[name] for run in layer_runs), "s", len(layer_runs))
                  for name in ("traced_wall_s", "accounted_s")]
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz", meta)
    else:
        values = {
            "setup_s": (setup_cpu, setup_n),
            "cpu_s": (typical_pass(tally.samples, len(ops), "cpu"), len(cpus)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        }
        listed = END_TO_END
        extra = [("setup_wall_s", setup_wall, "s", setup_n),
                 ("wall_s", typical_pass(tally.samples, len(ops), "wall"), "s", len(cpus))]
        extra += op_figures(ops, tally)
    print_rows([(name, values[name][0], unit, values[name][1]) for name, unit, _ in listed]
               + extra)
    result = {
        "correct": tally.wrong == 0,
        "attempted": len(tally.samples),
        "failed": tally.failed,
        "metrics": {name: {"value": values[name][0], "unit": unit} for name, unit, _ in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "coinwait" / "__init__.py").is_file():
        print(f"error: no coinwait sources at {SRC}; run from a coinwait checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
