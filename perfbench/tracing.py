"""Span tracing of coinwait's layers from outside the program.

``Tracer.install`` rebinds the public functions and methods of the modules
``cli``, ``pattern``, ``counting``, ``dyadic``, ``table`` and ``oracle``
to wrappers that record a span (name, start, end, parent) while an
operation is running.  Functions are rebound under every name that a
coinwait module binds them to, so ``cli.occurrence_counts`` and
``table.expected_waiting_time`` are traced too.  Counters for the work a
layer did are taken from the arguments and results at the same
boundaries.  Spans stay in flat arrays in memory and are written out once,
when the run ends.

A span's self time is its duration minus its children's durations.  The
operation itself is a root span of the ``bench`` layer, so the self times of
all layers plus ``bench`` add up to the traced pass's wall time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

MODULES = ("cli", "pattern", "counting", "dyadic", "table", "oracle")
LAYERS = ("cli", "pattern", "counting", "dyadic", "table", "oracle.tally", "oracle.sim")
BENCH = "bench"

# Special methods that are part of a class's public behaviour: construction,
# arithmetic, comparison and rendering.
DUNDERS = frozenset(
    "__init__ __post_init__ __str__ __neg__ __add__ __radd__ __sub__ __rsub__"
    " __eq__ __lt__ __le__ __gt__ __ge__".split()
)

# (name, unit, better) of every per-layer metric, in report order.
METRICS = [
    (f"{layer}.{what}", unit, "lower")
    for layer in LAYERS
    for what, unit in (("calls", "count"), ("self_s", "s"), ("failed", "count"))
] + [
    ("counting.terms", "count", "lower"),
    ("counting.max_bits", "bits", "lower"),
    ("counting.useful_ratio", "ratio", "higher"),
    ("pattern.max_len", "tosses", "lower"),
    ("table.patterns", "count", "higher"),
    ("cli.output_bytes", "B", "lower"),
    ("oracle.tally.strings", "count", "higher"),
    ("oracle.sim.games", "count", "higher"),
    ("oracle.sim.tosses", "count", "higher"),
    ("bench.self_s", "s", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
]


def _layer(module: str, name: str) -> str:
    if module == "oracle":
        return "oracle.sim" if "simul" in name.lower() else "oracle.tally"
    return module


class Tracer:
    """Records spans and work counters for traced passes."""

    def __init__(self):
        self.names: list[str] = []
        self.name_layer = array("i")
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.stack: list[int] = []
        self.active = False
        self.raised_in: str | None = None  # layer of the innermost span that raised
        self.counters: Counter = Counter()
        self.term_ranges: defaultdict = defaultdict(list)  # pattern bits -> [(lo, hi)]
        self.passes: list[tuple[int, int]] = []
        self._pass_start = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- instrumentation ----------------------------------------------

    def install(self) -> None:
        """Rebind every public function and method of the traced modules."""
        from coinwait.pattern import Pattern

        hooks = {
            "counting.occurrence_counts": lambda args, kw, r: self._note_terms(r, 0),
            "counting.extend_counts": lambda args, kw, r: self._note_terms(
                r, (args[0] if args else kw["counts"]).horizon + 1
            ),
            "table.waiting_time_table": lambda args, kw, r: self._add(
                "table.patterns", sum(len(row.patterns) for row in r)
            ),
            "oracle.exhaustive_tally": lambda args, kw, r: self._add(
                "oracle.tally.strings", 1 << r.n
            ),
            "oracle.simulate": self._note_games,
        }

        def pattern_hook(args, kw, result):
            for obj in (args[0] if args else None, result):
                if isinstance(obj, Pattern) and len(obj.bits) > self.counters["pattern.max_len"]:
                    self.counters["pattern.max_len"] = len(obj.bits)

        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"coinwait.{short}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                layer = _layer(short, name)
                hook = pattern_hook if short == "pattern" else hooks.get(f"{short}.{name}")
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{short}.{name}", layer, obj, hook)
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        own = inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__
                        if own and (not attr.startswith("_") or attr in DUNDERS):
                            wrapped = self._wrap(f"{short}.{name}.{attr}", layer, fn, hook)
                            self._patch(obj, attr, wrapped)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "coinwait" or mod_name.startswith("coinwait."):
                for name, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patch(module, name, wrappers[obj])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append((LAYERS + (BENCH,)).index(layer))
        return self._name_ids[name]

    def _wrap(self, name: str, layer: str, fn, hook):
        nid = self._name_id(name, layer)
        names, starts, ends, parents, stack = (
            self.span_name, self.starts, self.ends, self.parents, self.stack
        )
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if tracer.raised_in is None:
                    tracer.raised_in = layer
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- counters -----------------------------------------------------

    def _add(self, key: str, amount: int) -> None:
        self.counters[key] += amount

    def _note_terms(self, counts, first: int) -> None:
        self.counters["counting.terms"] += counts.horizon + 1 - first
        self.term_ranges[counts.pattern.bits].append((first, counts.horizon))
        bits = max(counts.sigma).bit_length()
        if bits > self.counters["counting.max_bits"]:
            self.counters["counting.max_bits"] = bits

    def _note_games(self, args, kwargs, result) -> None:
        self.counters["oracle.sim.games"] += result.trials
        self.counters["oracle.sim.tosses"] += round(result.sample_mean * result.trials)

    # -- operations and passes ----------------------------------------

    def begin_op(self, kind: str) -> None:
        """Open the root span of one operation and start recording."""
        idx = len(self.starts)
        self.span_name.append(self._name_id(f"op.{kind}", BENCH))
        self.parents.append(-1)
        self.ends.append(0)
        self.stack.append(idx)
        self.raised_in = None
        self.active = True
        self.starts.append(time.perf_counter_ns())

    def end_op(self) -> str | None:
        """Close the operation's span; return the layer that raised, if any."""
        self.ends[self.stack.pop()] = time.perf_counter_ns()
        self.active = False
        return self.raised_in

    def close_pass(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans and counters since the last pass."""
        lo, hi = self._pass_start, len(self.starts)
        self.passes.append((lo, hi))
        self._pass_start = hi
        start = np.frombuffer(self.starts, dtype=np.int64)[lo:hi]
        end = np.frombuffer(self.ends, dtype=np.int64)[lo:hi]
        parent = np.frombuffer(self.parents, dtype=np.int32)[lo:hi]
        layer = np.frombuffer(self.name_layer, dtype=np.int32)[
            np.frombuffer(self.span_name, dtype=np.int32)[lo:hi]
        ]
        dur = (end - start).astype(np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested] - lo, weights=dur[nested], minlength=hi - lo)
        n_layers = len(LAYERS) + 1
        self_ns = np.bincount(layer, weights=dur - child, minlength=n_layers)
        calls = np.bincount(layer, minlength=n_layers)

        c = self.counters
        out: dict[str, float] = {}
        for i, name in enumerate(LAYERS):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = self_ns[i] / 1e9
            out[f"{name}.failed"] = c[f"{name}.failed"]
        computed = c["counting.terms"]
        out["counting.terms"] = computed
        out["counting.max_bits"] = c["counting.max_bits"]
        out["counting.useful_ratio"] = self._distinct_terms() / computed if computed else 0.0
        for key in ("pattern.max_len", "table.patterns", "cli.output_bytes",
                    "oracle.tally.strings", "oracle.sim.games", "oracle.sim.tosses"):
            out[key] = c[key]
        # The operations' own spans hold the benchmark's share: op glue,
        # output capture and the wrappers' bookkeeping.  All self times
        # together should account for the pass's separately timed wall time.
        out["bench.self_s"] = self_ns[len(LAYERS)] / 1e9
        out["accounted_s"] = self_ns.sum() / 1e9
        out["traced_wall_s"] = wall_s
        self.counters = Counter()
        self.term_ranges.clear()
        return out

    def _distinct_terms(self) -> int:
        total = 0
        for ranges in self.term_ranges.values():
            covered_to = -1
            for lo, hi in sorted(ranges):
                if hi > covered_to:
                    total += hi - max(lo, covered_to + 1) + 1
                    covered_to = hi
        return total

    def write(self, path: Path, meta: dict) -> None:
        """Write every recorded span, as columns, to a gzipped JSON file.

        Starts are relative to the first span; parent is a span index, -1
        for an operation's root span; passes are [first, end) index ranges.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        start = np.frombuffer(self.starts, dtype=np.int64)
        end = np.frombuffer(self.ends, dtype=np.int64)
        doc = {
            "meta": meta,
            "names": self.names,
            "name_layer": [(LAYERS + (BENCH,))[i] for i in self.name_layer],
            "passes": self.passes,
            "span_name": self.span_name.tolist(),
            "start_ns": (start - (start[0] if len(start) else 0)).tolist(),
            "duration_ns": (end - start).tolist(),
            "parent": self.parents.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
