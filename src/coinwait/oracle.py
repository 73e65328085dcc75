"""Independent ground truth: brute-force enumeration and Monte Carlo games.

Nothing in this module touches the counting engine.  The exhaustive tally
classifies every binary string of a given length by direct window
comparison over its bits; the simulator plays games with a sliding window
over freshly tossed bits.  Agreement with the engine's sigma/tau sequences
and with the closed-form means is therefore a genuine cross-check, not a
tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidHorizonError, SimulationRunawayError, TooLargeError
from .pattern import Pattern

__all__ = [
    "ExhaustiveTally",
    "SimulationResult",
    "exhaustive_tally",
    "simulate",
]

# 2**24 strings is plenty for cross-checks and still enumerates in seconds.
DEFAULT_ENUMERATION_CEILING = 24

# Strings are enumerated as uint32 words, so no ceiling can admit 32 tosses.
_MAX_ENUMERATION_BITS = 31

# A game that runs this long is a bug, not bad luck: even the slowest
# length-20 pattern finishes in ~2**21 tosses on average.
GAME_LENGTH_CAP = 10**6


def _pattern_window_value(p: Pattern) -> int:
    # First toss in the window is the most significant bit.
    value = 0
    for b in p.bits:
        value = (value << 1) | b
    return value


@dataclass(frozen=True, slots=True)
class ExhaustiveTally:
    """Complete classification of all 2**n strings of length n.

    first_occurrence_counts[j] is the number of distinct length-j prefixes
    whose game ends exactly on toss j (each accounts for 2**(n-j) full
    strings); avoiding_count is the number of strings with no occurrence.
    """

    pattern: Pattern
    n: int
    first_occurrence_counts: dict[int, int]
    avoiding_count: int

    def classified_total(self) -> int:
        """Weighted total over the partition; always 2**n."""
        weighted = sum(
            count << (self.n - j)
            for j, count in self.first_occurrence_counts.items()
        )
        return weighted + self.avoiding_count


def exhaustive_tally(
    p: Pattern, n: int, *, ceiling: int = DEFAULT_ENUMERATION_CEILING
) -> ExhaustiveTally:
    """Classify every length-n string by where the pattern first completes.

    Strings are the integers 0..2**n - 1 with the most significant bit as
    the first toss.  For each end position j the m-bit window is compared
    against the pattern directly; the earliest hit wins, later recurrences
    are irrelevant.  All counting is exact.  n may not exceed min(ceiling, 31).
    """
    m = len(p)
    if n < m:
        raise InvalidHorizonError(f"n must be >= pattern length {m}, got {n}")
    limit = min(ceiling, _MAX_ENUMERATION_BITS)
    if n > limit:
        raise TooLargeError(f"n={n} exceeds the enumeration ceiling {limit}")

    pval = _pattern_window_value(p)
    mask = (1 << m) - 1
    strings = np.arange(1 << n, dtype=np.uint32)
    completion = np.zeros(1 << n, dtype=np.uint8)  # 0 = not completed yet
    for j in range(m, n + 1):
        window = (strings >> np.uint32(n - j)) & np.uint32(mask)
        hit = (window == np.uint32(pval)) & (completion == 0)
        completion[hit] = j

    raw = np.bincount(completion, minlength=n + 1)
    counts: dict[int, int] = {}
    for j in range(m, n + 1):
        full_strings = int(raw[j])
        # Every completing prefix extends freely, so the count divides evenly.
        prefixes, remainder = divmod(full_strings, 1 << (n - j))
        if remainder:
            raise AssertionError(
                f"completion count at position {j} not divisible by 2**{n - j}"
            )
        counts[j] = prefixes
    return ExhaustiveTally(
        pattern=p,
        n=n,
        first_occurrence_counts=counts,
        avoiding_count=int(raw[0]),
    )


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """Summary statistics of repeated simulated games."""

    pattern: Pattern
    trials: int
    seed: int
    generator: str
    sample_mean: float
    sample_stderr: float
    max_game_length_seen: int


def simulate(
    p: Pattern, trials: int, seed: int, *, max_tosses: int = GAME_LENGTH_CAP
) -> SimulationResult:
    """Play independent games to completion and report the sample mean.

    Each game tosses fair bits from a PCG64 stream seeded with `seed` until
    the last len(p) tosses equal the pattern.  Identical (pattern, trials,
    seed) always reproduce the identical result.  All still-running games
    share each round's draw, so the whole run is a deterministic function
    of the seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m = len(p)
    if m > 64:
        raise TooLargeError("simulation window holds at most 64 tosses")

    pval = np.uint64(_pattern_window_value(p))
    mask = np.uint64((1 << m) - 1)
    one = np.uint64(1)
    rng = np.random.Generator(np.random.PCG64(seed))

    window = np.zeros(trials, dtype=np.uint64)
    lengths = np.zeros(trials, dtype=np.int64)
    alive = np.arange(trials, dtype=np.int64)
    tosses = 0
    while alive.size:
        tosses += 1
        if tosses > max_tosses:
            raise SimulationRunawayError(
                f"a game exceeded {max_tosses} tosses; the simulator is broken"
            )
        bits = rng.integers(0, 2, size=alive.size, dtype=np.uint64)
        current = ((window[alive] << one) | bits) & mask
        window[alive] = current
        if tosses >= m:
            finished = current == pval
            lengths[alive[finished]] = tosses
            alive = alive[~finished]

    mean = float(lengths.mean())
    if trials > 1:
        stderr = float(lengths.std(ddof=1) / math.sqrt(trials))
    else:
        stderr = 0.0  # one observation carries no spread estimate
    return SimulationResult(
        pattern=p,
        trials=trials,
        seed=seed,
        generator="pcg64",
        sample_mean=mean,
        sample_stderr=stderr,
        max_game_length_seen=int(lengths.max()),
    )
