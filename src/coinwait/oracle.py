"""Independent ground truth: exhaustive prefix-state counts and Monte Carlo games.

Nothing in this module touches the counting engine.  The exhaustive tally
counts every binary string of a given length by its prefix state, the
length of the longest prefix of the pattern that ends it.  Each appended
toss moves every count along its state's two moves, built from the
pattern's bits alone; what reaches state m is tau_j and drops out, and the
sum left after the last toss is sigma_n: n * m additions on m Python ints.
The simulator plays games against freshly tossed bits, comparing each
game's last m tosses with the pattern.  Agreement with the engine's
sigma/tau sequences and with the closed-form means is therefore a genuine
cross-check, not a tautology.

The simulator reads its tosses from the raw 64-bit words of its seeded
PCG64 generator, and keeps nothing between reads: a read of k tosses
takes the next ceil(k / 64) words and gives their low k bits, least
significant first, so toss 64*w + i of the read is bit i of its word w;
the rest of the last word, fewer than 64 tosses, is never read.  Every
toss is a fresh bit of PCG64 output, so the tosses a read leaves do not
bias the games.  Games are played in blocks of rounds.  A block of B
rounds with k live games makes one read of B*k tosses as B rows of k:
row r gives the live game of rank j its r-th toss of the block, toss
r*k + j of the read.  Every game that completes in the block is settled
at its first completion and ignores the rest of its tosses there; the
games still live at the block's end keep their rank order.  B comes from
one rule that uses no engine value, from a game's first toss on:
  - B = 1 while k * m > 2**15: one vectorised step per round on windows
    of the narrowest unsigned type that holds m tosses, since with that
    many live games some game completes nearly every round;
  - otherwise B = min(2**m, 2**16 // k, tosses left under the cap).
    2**16 tosses is the block budget; B reaches 2m rounds exactly where
    k * m falls to 2**15.  Every mean wait is at least 2**m, so the 2**m
    cap bounds the tosses a finished game leaves unread.
Within a block all B * k cells are scanned at once, one pass per toss of
the pattern whatever its bits, so the long tail of a long pattern costs
numpy work per toss, not Python work per round, and few tosses are
scanned that no game plays: 2000 games of 1^12 (seed 3) scan 16.8M cells
in 262 blocks for 16.6M tosses played.  Each toss is read once and one
block is held at a time: the live games carry only their last m - 1
tosses out of a block before the next is read.  A window's untossed
places hold the opposite of the pattern's first toss, so none matches
before toss m.  A seed plays the same games only under the same block
rule; one game with m >= 6 reads every raw bit in order.

No game is tracked by number: the only per-game state is the live games'
windows, and a call keeps ended[t], the number of games that ended on toss
t.  From the exact integers S = sum of t * ended[t] and Q = sum of
t**2 * ended[t] over `trials` games, the statistics follow one rule: the
sample mean is S / trials, rounded once; the standard error of the mean
is the correctly rounded sqrt((trials * Q - S**2) / (trials**2 *
(trials - 1))), and 0.0 for one trial; the longest game is the largest t.
So they depend only on the multiset of game lengths, not on which game
had which length or on any order of summation.

numpy is imported inside the simulator's functions, so only `simulate`
loads it: numpy's import is most of a fresh process's start-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InvalidHorizonError, SimulationRunawayError, TooLargeError
from .pattern import Pattern

if TYPE_CHECKING:  # annotations only; the functions import numpy themselves
    from collections.abc import Callable

    import numpy as np

__all__ = [
    "ExhaustiveTally",
    "SimulationResult",
    "exhaustive_tally",
    "simulate",
]

# The largest n the tally counts to, kept as `verify`'s --oracle-n contract.
ENUMERATION_CEILING = 24

# The block budget, the only constant of the block rule (module docstring):
# at most this many tosses (live games x rounds) in one block.  From the first
# toss, rounds go in blocks when one holds 2m rounds: live games x m <= budget / 2;
# with more live games some game completes nearly every round, and one
# vectorised step per round is cheaper.  On a shared 2-core VM, 2**17 ran
# nine sim-tail calls in 0.32-0.55 s against 0.36-0.49 s (6 alternating
# rounds), no clear gain, for twice the memory of a block.
_BLOCK_TOSSES = 1 << 16

# The default runaway guard trips on a fair coin with at most this
# probability over all games of one call.
_FALSE_TRIP = 1e-12

# Trials are not chunked (that would change which toss each game reads),
# so the live windows and one round's tosses hold every game at once:
# 4-10 B per trial at peak, measured with tracemalloc.
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

    Strings are counted by prefix state (module docstring), exactly and
    with no overlap set of the engine.  n may not exceed 24.
    """
    m = len(p)
    if n < m:
        raise InvalidHorizonError(f"n must be >= pattern length {m}, got {n}")
    if n > ENUMERATION_CEILING:
        raise TooLargeError(
            f"n={n} exceeds the enumeration ceiling {ENUMERATION_CEILING}"
        )
    moves = _prefix_moves(p.bits)
    counts = [1] + [0] * (m - 1)  # the empty string, in state 0
    first_occurrence_counts: dict[int, int] = {}
    for j in range(1, n + 1):
        grown = [0] * (m + 1)
        for count, (tail, head) in zip(counts, moves):
            grown[tail] += count
            grown[head] += count
        if j >= m:  # state m: the pattern completes on toss j
            first_occurrence_counts[j] = grown[m]
        counts = grown[:m]
    return ExhaustiveTally(
        pattern=p,
        n=n,
        first_occurrence_counts=first_occurrence_counts,
        avoiding_count=sum(counts),
    )


def _prefix_moves(bits: tuple[int, ...]) -> list[list[int]]:
    """Row k is [state after a 0, state after a 1] from prefix state k.

    bits[k] moves state k to k + 1; the other toss moves it as it moves the
    restart state x, the state bits[1:k] leads to, so the table is O(m).
    """
    moves, x = [[0, 0]], 0
    moves[0][bits[0]] = 1
    for k in range(1, len(bits)):
        moves.append(moves[x].copy())
        moves[k][bits[k]] = k + 1
        x = moves[x][bits[k]]
    return moves


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
    pattern.  The games are played in blocks of rounds over a fixed live
    set, and each block takes its tosses, one per live game per round, from
    one read of fresh raw words of a PCG64 generator seeded with `seed`:
    every game that completes in a block ends at its first completion, and
    the rest play on in the next (see the module docstring).  So identical
    (pattern, trials, seed) always reproduce the identical result.
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

    ended = _play(p, trials, np.random.PCG64(seed).random_raw, max_tosses)

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


def _read(raw: Callable[[int], np.ndarray], k: int) -> np.ndarray:
    """k tosses: the low k bits of the next ceil(k / 64) raw words.

    Bits are taken lowest first (byte order and bit order both
    little-endian), and the rest of the last word is never read.
    """
    import numpy as np

    words = raw(-(-k // 64)).astype("<u8", copy=False)
    return np.unpackbits(words.view(np.uint8), count=k, bitorder="little").view(bool)


def _play(
    p: Pattern, trials: int, raw: Callable[[int], np.ndarray], max_tosses: int
) -> dict[int, int]:
    """Play `trials` games; return {toss: games that ended on that toss}.

    Rounds are single vectorised steps until a block holds 2m rounds
    (module docstring); _scan_blocks plays the rest.  window holds each
    live game's last m tosses as an integer of the narrowest unsigned type
    that fits them (1 B up to 8 tosses), first toss most significant, in
    rank order, with the opposite of the pattern's first toss in every
    place not yet tossed, so it cannot match early; it shrinks only in
    rounds where some game completes.  A boolean mask compacts it fastest
    when few games finish, since it copies long kept runs whole, and an
    index array when many do, since a mask then branches on every short run.
    """
    import numpy as np

    m = len(p)
    word = np.min_scalar_type((1 << m) - 1).type  # unsigned, m bits or more
    pval, mask = word(int(str(p), 2)), word((1 << m) - 1)
    window = np.full(trials, 0 if p.bits[0] else mask, dtype=word)
    ended: dict[int, int] = {}
    tosses = 0
    while 2 * m * window.size > _BLOCK_TOSSES:
        if tosses >= max_tosses:
            raise _runaway(max_tosses)
        tosses += 1
        window += window  # the shift by one: uint8 shifts have no vector loop
        window |= _read(raw, window.size)
        window &= mask
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
        _scan_blocks(tuple(map(bool, p.bits)), history, raw, tosses, max_tosses)
    )
    return ended


def _scan_blocks(
    bits: tuple[bool, ...],
    history: np.ndarray,
    raw: Callable[[int], np.ndarray],
    tosses: int,
    max_tosses: int,
) -> dict[int, int]:
    """Finish the live games block by block, settling every game that completes.

    history holds the last m - 1 tosses of each of the k live games, one
    column per game in rank order, so k is its width; the result counts
    the games that end on each toss, as _play's does.  A block is
    min(2**m, _BLOCK_TOSSES // k, max_tosses - tosses) rounds, and row q
    of it holds toss tosses + q + 1 of every live game: one read of
    rounds x k tosses.  Stacked under history, a game completes in row q
    when rows q .. q + m - 1 of its column spell the pattern, so one pass
    per toss of the pattern finds every completing (row, game) cell of the
    block at once: a heads row is folded in with AND, a tails row with >,
    since for booleans a > b is a and not b.  Each game that has such a
    cell ends at its first one; the others' last m - 1 tosses are copied
    out, so only one block is held at a time.
    """
    import numpy as np

    m = len(bits)
    ended: dict[int, int] = {}
    while k := history.shape[1]:
        rounds = min(1 << m, _BLOCK_TOSSES // k, max_tosses - tosses)
        if rounds <= 0:
            raise _runaway(max_tosses)
        tape = np.concatenate((history, _read(raw, rounds * k).reshape(rounds, k)))
        hit = tape[:rounds] == bits[0]
        for i in range(1, m):
            fold = np.logical_and if bits[i] else np.greater
            fold(hit, tape[i : i + rounds], out=hit)
        cells = np.flatnonzero(hit)  # in row order, so a game's first comes first
        history = tape[rounds:].copy()  # not a view, so the tape can go
        if cells.size:
            games, first = np.unique(cells % k, return_index=True)
            rows, done = np.unique(cells[first] // k, return_counts=True)
            for q, count in zip(rows.tolist(), done.tolist()):
                ended[tosses + q + 1] = count
            history = np.delete(history, games, axis=1)
        del tape, hit
        tosses += rounds
    return ended
