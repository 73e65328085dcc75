"""Independent ground truth: brute-force enumeration and Monte Carlo games.

Nothing in this module touches the counting engine.  The exhaustive tally
classifies every binary string of a given length by direct window
comparison over its bits; the simulator plays games against freshly tossed
bits, comparing each game's last m tosses with the pattern.  Agreement with
the engine's sigma/tau sequences and with the closed-form means is
therefore a genuine cross-check, not a tautology.

The tally walks the 2**n strings in chunks of 2**16 consecutive integers.
A window ending at j >= n - 16 + m lies in the low 16 bits, the same in
every chunk, so those positions are scanned once; one ending at j <= n - 16
is one integer per chunk, and its earliest hit completes the whole chunk.
Only the m - 1 windows straddling the two are scanned per chunk.  Scans
run from last position to first, each hit written over the previous one,
so the earliest completion is left standing.  The arrays are one chunk
long whatever n is (about 1.5 MB at peak), so the time grows with 2**n
but the memory does not.  tau_j does not depend on n, so one tally at N
gives every tau_j with j <= N, and its avoiding count is sigma_N.

The simulator reads one toss stream S from its seeded PCG64 generator:
each raw 64-bit word gives two tosses, the top bits of its low and then
its high 32-bit half, which is what ``integers(0, 2, dtype=uint64)``
returns from a fresh generator.  Games are played in rounds; in round r
the live game of rank j among k live games gets toss S[pos_r + j], and
pos_{r+1} = pos_r + k.
While many games are live, each round is one vectorised step.  Once
k * m fits in a block budget, the live set stays fixed until some game
completes, so the next B rounds are just S[pos : pos + B*k] as a B x k
array: one scan finds the first round that completes a game, that round
is settled and the rest of the block goes back to the stream.  Both modes
read the same stream the same way, so a seed gives the same games
whichever mode plays them.
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

# 2**24 strings is plenty for cross-checks and tallies in about 0.14 s.
# The ceiling bounds time only: the tally's memory is fixed.  It must stay
# <= 31, because strings are enumerated as uint32 words.
ENUMERATION_CEILING = 24

# Strings are tallied 2**16 at a time: large enough that each numpy step
# outweighs its call overhead, small enough that the arrays stay near 1 MB.
_TALLY_CHUNK_BITS = 16

# Tosses (live games x rounds) read per block scan.  Rounds go in blocks once
# live games x pattern length fits in it; with more live games some game
# completes nearly every round, and one vectorised step per round is cheaper
# than scanning rounds past that completion.
_BLOCK_TOSSES = 1 << 15

# The default runaway guard trips on a fair coin with at most this
# probability over all games of one call.
_FALSE_TRIP = 1e-12

# Trials are not chunked (that would change which toss each game reads),
# so the arrays hold every game at once: about 35 B per trial at peak.
_MAX_TRIALS = 10**7


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


def exhaustive_tally(p: Pattern, n: int) -> ExhaustiveTally:
    """Classify every length-n string by where the pattern first completes.

    Strings are the integers 0..2**n - 1 with the most significant bit as
    the first toss.  For each end position j the m-bit window is compared
    against the pattern directly; the earliest hit wins, later recurrences
    are irrelevant.  All counting is exact.  n may not exceed 24.

    The strings are walked in chunks of 2**min(n, 16); the module docstring
    gives the three groups of end positions.  Positions are scanned from
    last to first, every hit overwriting the completion position, so the
    earliest one is written last and no "completed yet" mask is needed.
    Each chunk's positions are histogrammed into one running count.
    Memory is a few chunk-sized arrays (about 1.5 MB at peak) for every n.
    """
    m = len(p)
    if n < m:
        raise InvalidHorizonError(f"n must be >= pattern length {m}, got {n}")
    if n > ENUMERATION_CEILING:
        raise TooLargeError(
            f"n={n} exceeds the enumeration ceiling {ENUMERATION_CEILING}"
        )

    pval = int(str(p), 2)
    mask = (1 << m) - 1
    c = min(n, _TALLY_CHUNK_BITS)
    low = np.arange(1 << c, dtype=np.uint32)  # a chunk's low c bits
    strings, window = low.copy(), np.empty_like(low)
    hit = np.empty(low.size, dtype=bool)

    def scan(positions, completion):  # later positions first, earliest hit last
        for j in positions:
            np.right_shift(strings, np.uint32(n - j), out=window)
            np.bitwise_and(window, np.uint32(mask), out=window)
            np.equal(window, np.uint32(pval), out=hit)
            np.copyto(completion, j, where=hit)

    inner = np.zeros(low.size, dtype=np.uint8)  # 0 = no occurrence
    scan(range(n, n - c + m - 1, -1), inner)  # windows in the low bits
    outer = range(m, n - c + 1)  # windows in the high bits
    straddling = range(min(n, n - c + m - 1), max(m, n - c + 1) - 1, -1)
    raw = np.zeros(n + 1, dtype=np.int64)
    for high in range(1 << (n - c)):
        j = next((j for j in outer if (high >> (n - c - j)) & mask == pval), 0)
        if j:  # the whole chunk completes at its earliest outer hit
            raw[j] += 1 << c
            continue
        np.add(low, np.uint32(high << c), out=strings)
        completion = inner.copy()
        scan(straddling, completion)
        raw += np.bincount(completion, minlength=n + 1)

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
    p: Pattern, trials: int, seed: int, *, max_tosses: int | None = None
) -> SimulationResult:
    """Play independent games to completion and report the sample mean.

    Each game tosses fair bits until its last len(p) tosses equal the
    pattern.  All games read one PCG64 toss stream seeded with `seed`,
    round-robin over the games still live (see the module docstring), so
    identical (pattern, trials, seed) always reproduce the identical result.

    A game still live after `max_tosses` tosses raises
    SimulationRunawayError.  The default cap is m * k tosses with
    k = ceil(log(1e-12 / trials) / log(1 - 2**-m)): each run of m fresh
    tosses spells the pattern with probability 2**-m, so a game outlasts
    the cap with probability at most (1 - 2**-m)**k, and all `trials`
    games together with at most 1e-12.  The cap uses no engine value.
    Fewer than 1 trial or a negative seed raise ValueError; more than 10**7
    trials raise TooLargeError before anything is allocated.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if trials > _MAX_TRIALS:
        raise TooLargeError(
            f"trials={trials} exceeds the simulation ceiling {_MAX_TRIALS}"
        )
    m = len(p)
    if m > 64:
        raise TooLargeError("simulation window holds at most 64 tosses")
    if max_tosses is None:
        max_tosses = m * math.ceil(
            math.log(_FALSE_TRIP / trials) / math.log1p(-(2.0**-m))
        )

    rng = np.random.Generator(np.random.PCG64(seed))
    lengths = np.zeros(trials, dtype=np.int64)
    _play(p, lengths, _Tosses(rng), max_tosses)

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


def _runaway(max_tosses: int) -> SimulationRunawayError:
    return SimulationRunawayError(
        f"a game exceeded {max_tosses} tosses; the simulator is broken"
    )


class _Tosses:
    """The toss stream S (module docstring), drawn _BLOCK_TOSSES at a time."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._raw = rng.bit_generator.random_raw
        self._ahead = np.empty(0, dtype=bool)  # drawn, not yet read, from `at`
        self.at = 0  # readers advance it past the tosses they use

    def peek(self, k: int) -> np.ndarray:
        """The next k tosses, left unread."""
        if self._ahead.size - self.at < k:
            raw = self._raw(max(k, _BLOCK_TOSSES) // 2 + 1)
            fresh = raw.astype("<u8", copy=False).view("<u4") >= 2**31
            self._ahead = np.concatenate((self._ahead[self.at :], fresh))
            self.at = 0
        return self._ahead[self.at : self.at + k]


def _play(
    p: Pattern, lengths: np.ndarray, stream: _Tosses, max_tosses: int
) -> None:
    """Fill lengths[i] with the length of game i.

    Rounds are single vectorised steps until every live game has m - 1
    tosses and live games x m fits in the block budget; _scan_blocks plays
    the rest.  window holds each live game's last m tosses as an integer,
    first toss most significant, aligned with the game numbers in alive;
    both shrink only in rounds where some game completes.
    """
    m = len(p)
    word = np.uint32 if m <= 32 else np.uint64
    pval, mask = word(int(str(p), 2)), word((1 << m) - 1)
    alive = np.arange(lengths.size, dtype=np.int32)
    window = np.zeros(lengths.size, dtype=word)
    tosses = 0
    while alive.size * m > _BLOCK_TOSSES or tosses < m - 1:
        if tosses >= max_tosses:
            raise _runaway(max_tosses)
        tosses += 1
        window <<= 1
        window |= stream.peek(alive.size)
        stream.at += alive.size
        window &= mask
        if tosses >= m:
            hit = window == pval
            if hit.any():
                lengths[alive.compress(hit)] = tosses
                keep = np.flatnonzero(~hit)
                if not keep.size:
                    return
                alive = alive.take(keep)
                window = window.take(keep)
    # The last m - 1 tosses of each live game, oldest first, one row each.
    ages = np.arange(m - 2, -1, -1, dtype=word)
    history = ((window >> ages[:, None]) & 1).astype(bool)
    _scan_blocks(
        tuple(map(int, p.bits)), history, alive, lengths, stream, tosses, max_tosses
    )


def _scan_blocks(
    bits: tuple[int, ...],
    history: np.ndarray,
    alive: np.ndarray,
    lengths: np.ndarray,
    stream: _Tosses,
    tosses: int,
    max_tosses: int,
) -> None:
    """Finish the live games block by block, settling one round per block.

    Row q of a block holds round tosses + q + 1 for every live game: the
    stream's next rounds x k tosses, peeked, not read.  Stacked under each
    game's last m - 1 tosses, the game completes in that round when rows
    q .. q + m - 1 spell the pattern: m boolean ANDs find every completing
    (round, game) cell of the block at once.  Only the rounds up to the
    first completing one are read; the rest stay in the stream.
    """
    m = len(bits)
    while alive.size:
        k = alive.size
        rounds = min(_BLOCK_TOSSES // k, max_tosses - tosses)
        if rounds <= 0:
            raise _runaway(max_tosses)
        tape = np.concatenate((history, stream.peek(rounds * k).reshape(rounds, k)))
        sides = (~tape, tape)
        hit = sides[bits[0]][:rounds].copy()
        for i in range(1, m):
            np.logical_and(hit, sides[bits[i]][i : i + rounds], out=hit)
        completing = hit.any(axis=1)
        if not completing.any():
            tosses += rounds
            stream.at += rounds * k
            history = tape[rounds:]
            continue
        q = int(completing.argmax())
        tosses += q + 1
        stream.at += (q + 1) * k
        keep = ~hit[q]
        lengths[alive[hit[q]]] = tosses
        alive = alive[keep]
        history = tape[q + 1 : q + m, keep]
