"""Independent ground truth: brute-force enumeration and Monte Carlo games.

Nothing in this module touches the counting engine.  The exhaustive tally
classifies every binary string of a given length by direct window
comparison over its bits; the simulator plays games against freshly tossed
bits, comparing each game's last m tosses with the pattern.  Agreement with
the engine's sigma/tau sequences and with the closed-form means is
therefore a genuine cross-check, not a tautology.

The tally walks the 2**n strings in chunks of 2**16 consecutive integers:
the high n - 16 bits number the chunk, the low 16 run through every value.
A window ending at j >= n - 16 + m lies in the low bits, the same in every
chunk, so those positions are scanned once, from last to first, each hit
written over the previous one, so the earliest completion is left
standing.  One ending at j <= n - 16 is one integer per chunk, and its
earliest hit completes the whole chunk.  Each of the m - 1 windows
straddling the two hits when the chunk number ends in the pattern's first
tosses and the low bits start with its last ones: one integer test, and
one run of consecutive low values, the same run in every chunk.  So the
chunks that share a set of straddling hits share their whole tally: it is
made once, by writing those runs (later positions first) over a copy of
the low-bit completions, and counted once per chunk.  The arrays are one
chunk long whatever n is (about 1.2 MB at peak); what grows with n is a
few integer tests per chunk.  tau_j does not depend on n, so one tally at
N gives every tau_j with j <= N, and its avoiding count is sigma_N.

The simulator reads one toss stream S from its seeded PCG64 generator:
each raw 64-bit word gives 64 tosses, least significant bit first, so
S[64*w + i] is bit i of word w.  Games are played in rounds; in round r
the live game of rank j among k live games gets toss S[pos_r + j], and
pos_{r+1} = pos_r + k.
While many games are live, each round is one vectorised step on windows
of the narrowest unsigned type that holds m tosses.  Once k * m fits in a
block budget, the live set stays fixed until some game completes, so the
next B rounds are just S[pos : pos + B*k] as a B x k array: one scan
finds the first round that completes a game, that round is settled and
the rest of the block goes back to the stream.  B is the number of rounds
between the last two completions, doubled after a block without one, so
few scanned rounds are thrown away.  Both modes read the same stream the
same way, so a seed gives the same games whichever mode plays them.

No game is tracked by number: the only per-game state is the live games'
windows, and a call keeps ended[t], the number of games that ended on toss
t.  From the exact integers S = sum of t * ended[t] and Q = sum of
t**2 * ended[t] over `trials` games, the statistics follow one rule: the
sample mean is S / trials, rounded once; the standard error of the mean
is the correctly rounded sqrt((trials * Q - S**2) / (trials**2 *
(trials - 1))), and 0.0 for one trial; the longest game is the largest t.
So they depend only on the multiset of game lengths, not on which game
had which length or on any order of summation.

numpy is imported inside the functions that use it, so it loads on the
first simulation or tally.  Importing coinwait, and the `expect`, `table`
and `dist` commands, never load it: numpy's import is most of a fresh
process's start-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InvalidHorizonError, SimulationRunawayError, TooLargeError
from .pattern import Pattern

if TYPE_CHECKING:  # annotations only; the functions import numpy themselves
    import numpy as np

__all__ = [
    "ExhaustiveTally",
    "SimulationResult",
    "exhaustive_tally",
    "simulate",
]

# 2**24 strings is plenty for cross-checks and tallies in a few ms.
# The ceiling bounds time only: the tally's memory is fixed.  It must stay
# <= 31, because strings are enumerated as uint32 words.
ENUMERATION_CEILING = 24

# Strings are tallied 2**16 at a time: large enough that each numpy step
# outweighs its call overhead, small enough that the arrays stay near 1 MB.
_TALLY_CHUNK_BITS = 16

# Most tosses (live games x rounds) scanned per block.  Rounds go in blocks once
# live games x pattern length fits in it; with more live games some game
# completes nearly every round, and one vectorised step per round is cheaper
# than scanning rounds past that completion.
_BLOCK_TOSSES = 1 << 15

# The default runaway guard trips on a fair coin with at most this
# probability over all games of one call.
_FALSE_TRIP = 1e-12

# Trials are not chunked (that would change which toss each game reads),
# so the live windows and the toss stream hold every game at once: 5-11 B
# per trial at peak, measured with tracemalloc.
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
    gives the three groups of end positions.  Positions are written from
    last to first, every hit overwriting the completion position, so the
    earliest one is written last and no "completed yet" mask is needed.
    Chunks are grouped by the straddling windows their high bits allow;
    each group's completions are histogrammed once and weighted by its
    number of chunks.  Memory is a few chunk-sized arrays (about 1.2 MB at
    peak) for every n.
    """
    m = len(p)
    if n < m:
        raise InvalidHorizonError(f"n must be >= pattern length {m}, got {n}")
    if n > ENUMERATION_CEILING:
        raise TooLargeError(
            f"n={n} exceeds the enumeration ceiling {ENUMERATION_CEILING}"
        )

    import numpy as np

    pval = int(str(p), 2)
    mask = (1 << m) - 1
    c = min(n, _TALLY_CHUNK_BITS)
    h = n - c  # the high bits number the chunk
    low = np.arange(1 << c, dtype=np.uint32)  # a chunk's low c bits
    window = np.empty_like(low)
    hit = np.empty(low.size, dtype=bool)
    inner = np.zeros(low.size, dtype=np.uint8)  # 0 = no occurrence
    for j in range(n, h + m - 1, -1):  # windows in the low bits, later first
        np.right_shift(low, np.uint32(n - j), out=window)
        np.bitwise_and(window, np.uint32(mask), out=window)
        np.equal(window, np.uint32(pval), out=hit)
        np.copyto(inner, j, where=hit)

    # A straddling window ending at j has its last s = j - h tosses in the
    # low bits: it hits when the high bits end in the pattern's first m - s
    # tosses and the low bits start with its last s, a run of 2**(c - s)
    # strings.  Later positions come first, so earlier hits overwrite them.
    straddling, runs = [], {}
    for j in range(min(n, h + m - 1), max(m, h + 1) - 1, -1):
        s = j - h
        straddling.append((j, (1 << (m - s)) - 1, pval >> s))
        start = (pval & ((1 << s) - 1)) << (c - s)
        runs[j] = slice(start, start + (1 << (c - s)))
    outer = range(m, h + 1)  # windows in the high bits
    raw = np.zeros(n + 1, dtype=np.int64)
    chunks: dict[tuple, int] = {}  # straddling hits -> chunks with them
    for high in range(1 << h):
        j = next((j for j in outer if (high >> (h - j)) & mask == pval), 0)
        if j:  # the whole chunk completes at its earliest outer hit
            raw[j] += 1 << c
            continue
        hits = tuple(j for j, last, first in straddling if high & last == first)
        chunks[hits] = chunks.get(hits, 0) + 1
    for hits, count in chunks.items():
        completion = inner.copy()
        for j in hits:
            completion[runs[j]] = j
        raw += count * np.bincount(completion, minlength=n + 1)

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
    The statistics are computed from exact integer sums by the rule the
    module docstring states: the mean is rounded once and the standard
    error is the correctly rounded root.

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

    import numpy as np

    rng = np.random.Generator(np.random.PCG64(seed))
    ended = _play(p, trials, _Tosses(rng), max_tosses)

    total = sum(t * k for t, k in ended.items())
    squares = sum(t * t * k for t, k in ended.items())
    if trials > 1:
        stderr = _sqrt_of_ratio(
            trials * squares - total * total, trials * trials * (trials - 1)
        )
    else:
        stderr = 0.0  # one observation carries no spread estimate
    return SimulationResult(
        pattern=p,
        trials=trials,
        seed=seed,
        generator="pcg64",
        sample_mean=total / trials,
        sample_stderr=stderr,
        max_game_length_seen=max(ended),
    )


def _sqrt_of_ratio(num: int, den: int) -> float:
    """sqrt(num / den) correctly rounded, for ints num >= 0 and den > 0.

    num / den is scaled by 4**-e so that its integer root has 55 bits or
    more, two past a double's 53.  That root, with its last bit set when it
    is inexact (round to odd), rounds to the same double as the exact root,
    and root * 2**e is formed with that one rounding.
    """
    e = (num.bit_length() - den.bit_length() - 109) // 2
    if e >= 0:
        den <<= 2 * e
    else:
        num <<= -2 * e
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return float(root << e) if e >= 0 else root / (1 << -e)


def _runaway(max_tosses: int) -> SimulationRunawayError:
    return SimulationRunawayError(
        f"a game exceeded {max_tosses} tosses; the simulator is broken"
    )


class _Tosses:
    """The toss stream S (module docstring), drawn _BLOCK_TOSSES at a time.

    Each draw takes whole raw words and unpacks their bits, lowest first
    (byte order and bit order both little-endian); the tosses of a word
    not yet read wait for the next peek.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        import numpy as np

        self._raw = rng.bit_generator.random_raw
        self._ahead = np.empty(0, dtype=bool)  # drawn, not yet read, from `at`
        self.at = 0  # readers advance it past the tosses they use

    def peek(self, k: int) -> np.ndarray:
        """The next k tosses, left unread."""
        if self._ahead.size - self.at < k:
            import numpy as np

            raw = self._raw(max(k, _BLOCK_TOSSES) // 64 + 1)
            fresh = np.unpackbits(
                raw.astype("<u8", copy=False).view(np.uint8), bitorder="little"
            ).view(bool)
            self._ahead = np.concatenate((self._ahead[self.at :], fresh))
            self.at = 0
        return self._ahead[self.at : self.at + k]


def _play(
    p: Pattern, trials: int, stream: _Tosses, max_tosses: int
) -> dict[int, int]:
    """Play `trials` games; return {toss: games that ended on that toss}.

    Rounds are single vectorised steps until every live game has m - 1
    tosses and live games x m fits in the block budget; _scan_blocks plays
    the rest.  window holds each live game's last m tosses as an integer
    of the narrowest unsigned type that fits them (1 B up to 8 tosses),
    first toss most significant, in rank order; it shrinks only in rounds
    where some game completes.  A boolean mask compacts it fastest when few
    games finish, since it copies long kept runs whole, and an index array
    when many do, since a mask then branches on every short run.
    """
    import numpy as np

    m = len(p)
    word = np.min_scalar_type((1 << m) - 1).type  # unsigned, m bits or more
    pval, mask = word(int(str(p), 2)), word((1 << m) - 1)
    window = np.zeros(trials, dtype=word)
    ended: dict[int, int] = {}
    tosses = 0
    while window.size * m > _BLOCK_TOSSES or tosses < m - 1:
        if tosses >= max_tosses:
            raise _runaway(max_tosses)
        tosses += 1
        window += window  # the shift by one: uint8 shifts have no vector loop
        window |= stream.peek(window.size)
        stream.at += window.size
        window &= mask
        if tosses >= m:
            hit = window == pval
            done = int(np.count_nonzero(hit))  # a Python int: t*t*k must not wrap
            if done:
                ended[tosses] = done
                if done * 32 < window.size:  # faster below about 1 in 25
                    window = window[~hit]
                else:
                    window = window.take(np.flatnonzero(~hit))
    # The last m - 1 tosses of each live game, oldest first, one row each.
    ages = np.arange(m - 2, -1, -1, dtype=word)
    history = ((window >> ages[:, None]) & 1).astype(bool)
    ended.update(
        _scan_blocks(tuple(map(int, p.bits)), history, stream, tosses, max_tosses)
    )
    return ended


def _scan_blocks(
    bits: tuple[int, ...],
    history: np.ndarray,
    stream: _Tosses,
    tosses: int,
    max_tosses: int,
) -> dict[int, int]:
    """Finish the live games block by block, settling one round per block.

    history holds the last m - 1 tosses of each of the k live games, one
    column per game in rank order, so k is its width; the result counts
    the games that end on each toss, as _play's does.  Row q of a block
    holds round tosses + q + 1 for every live game: the stream's next
    rounds x k tosses, peeked, not read.  Stacked under history, the game
    completes in that round when rows q .. q + m - 1 spell the pattern: m
    boolean ANDs find every completing (round, game) cell of the block at
    once.  Only the rounds up to the first completing one are read; the
    rest stay in the stream, so a block has as many rounds as passed
    between the last two completions, twice as many after a block without
    one, at most _BLOCK_TOSSES // k.  The negated tape is built only for a
    pattern with a tail.
    """
    import numpy as np

    m = len(bits)
    ended: dict[int, int] = {}
    rounds, since = 1, 0  # this block's rounds; rounds since a game completed
    while k := history.shape[1]:
        rounds = min(rounds, _BLOCK_TOSSES // k, max_tosses - tosses)
        if rounds <= 0:
            raise _runaway(max_tosses)
        tape = np.concatenate((history, stream.peek(rounds * k).reshape(rounds, k)))
        sides = (~tape if 0 in bits else None, tape)
        hit = sides[bits[0]][:rounds].copy()
        for i in range(1, m):
            np.logical_and(hit, sides[bits[i]][i : i + rounds], out=hit)
        first = int(hit.argmax())  # the first completing cell, in round order
        if not hit.flat[first]:
            tosses += rounds
            stream.at += rounds * k
            history = tape[rounds:]
            since += rounds
            rounds *= 2
            continue
        q = first // k
        tosses += q + 1
        stream.at += (q + 1) * k
        rounds, since = since + q + 1, 0
        keep = ~hit[q]
        ended[tosses] = int(np.count_nonzero(hit[q]))
        history = tape[q + 1 : q + m].compress(keep, axis=1)
    return ended
