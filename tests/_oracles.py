"""Reference implementations used only by tests.

Everything here is deliberately written against plain Python strings and
dicts, with none of the library's machinery, so that agreement between the
two sides is meaningful evidence rather than the same code twice.
"""

import csv
import io
import json
from collections.abc import Callable
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product

import numpy as np


def brute_sigma_tau(pattern: str, horizon: int) -> tuple[list[int], list[int]]:
    """Count avoiding and first-terminating strings by full enumeration.

    sigma[n] = number of length-n 0/1 strings not containing `pattern`;
    tau[n] = number whose only occurrence of `pattern` is at the very end.
    Exponential in `horizon`: keep it small.
    """
    m = len(pattern)
    sigma = []
    tau = []
    for n in range(horizon + 1):
        avoiding = 0
        terminating = 0
        for bits in product("01", repeat=n):
            s = "".join(bits)
            pos = s.find(pattern)
            if pos == -1:
                avoiding += 1
            elif pos == n - m and s.find(pattern, pos + 1) == -1:
                terminating += 1
        sigma.append(avoiding)
        tau.append(terminating)
    return sigma, tau


def enumerated_completions(pattern: str, n: int) -> np.ndarray:
    """The 2**n strings of length n, counted by where the pattern first ends.

    Entry j (m <= j <= n) counts the full strings whose first occurrence
    ends on toss j, and entry 0 those with none.  Every string is its
    integer in arange(2**n), first toss most significant.  The window ending
    at each position is tested on all of them at once, later positions
    first, each hit writing its position over the last, so the earliest
    stays; a bincount then counts the positions.  2**n uint32 strings, so
    keep n near 20.
    """
    m = len(pattern)
    strings = np.arange(1 << n, dtype=np.uint32)
    completion = np.zeros(1 << n, dtype=np.uint8)
    for j in range(n, m - 1, -1):
        completion[(strings >> (n - j)) & ((1 << m) - 1) == int(pattern, 2)] = j
    return np.bincount(completion, minlength=n + 1)


def conditioned_sigma_tau(pattern: str, horizon: int) -> tuple[list[int], list[int]]:
    """Suffix-conditioned recursion for the same counts.

    Splits the avoiding strings of each length by their last m-1 characters
    and steps all classes together: appending a bit moves a class to a new
    suffix unless it would spell out the full pattern.  tau_n is then the
    count, one step earlier, of the single class that completes the pattern.
    """
    m = len(pattern)
    sigma = [1]
    tau = [0]
    if horizon == 0:
        return sigma, tau

    # All strings shorter than m avoid the pattern trivially.
    for n in range(1, min(m - 1, horizon) + 1):
        sigma.append(2 ** n)
        tau.append(0)
    if horizon <= m - 1:
        return sigma, tau

    classes = {"".join(bits): 1 for bits in product("01", repeat=m - 1)}
    head = pattern[:-1]
    for n in range(m, horizon + 1):
        tau.append(classes.get(head, 0))
        stepped: dict[str, int] = {}
        for suffix, count in classes.items():
            for bit in "01":
                if suffix + bit == pattern:
                    continue
                key = (suffix + bit)[1:] if m > 1 else ""
                stepped[key] = stepped.get(key, 0) + count
        classes = stepped
        sigma.append(sum(classes.values()))
    return sigma, tau


def series_sigma(coeffs: tuple[int, ...], horizon: int) -> list[int]:
    """sigma_0..sigma_horizon as the power series of c(z) / (z**m + (1 - 2z) c(z)).

    coeffs are the overlap indicators c_1..c_m, with c_m = 1.  c(z) is
    Guibas & Odlyzko's autocorrelation polynomial, with a z**(m - j) term
    for each overlap length j, so its constant term is c_m = 1 and so is
    the denominator's: the quotient comes out by integer series division,
    one coefficient at a time.
    """
    m = len(coeffs)
    c = coeffs[::-1]  # c[i] is the coefficient of z**i
    denominator = [0] * m + [1]
    for i, ci in enumerate(c):
        denominator[i] += ci
        denominator[i + 1] -= 2 * ci
    sigma: list[int] = []
    for n in range(horizon + 1):
        s = c[n] if n < m else 0
        for i in range(1, min(n, m) + 1):
            s -= denominator[i] * sigma[n - i]
        sigma.append(s)
    return sigma


def reference_decimal(numerator: int, exponent: int) -> str:
    """Exact decimal text of numerator / 2**exponent, by plain string work.

    Reduces to an odd numerator (or zero) first, writes out
    |numerator| * 5**exponent with str() and puts the point exponent digits
    from the right.  str() of a big int is bounded by Python's
    int_max_str_digits limit, so keep the digit count below it.
    """
    while exponent > 0 and numerator % 2 == 0:
        numerator //= 2
        exponent -= 1
    if exponent == 0:
        return str(numerator)
    digits = str(abs(numerator) * 5**exponent).rjust(exponent + 1, "0")
    sign = "-" if numerator < 0 else ""
    return f"{sign}{digits[:-exponent]}.{digits[-exponent:]}"


def reference_dist(typed: str, horizon: int, fmt: str) -> str:
    """The whole output of `coinwait dist typed --horizon horizon --format fmt`.

    typed is the pattern as given on the command line, in 0/1 or H/T.  The
    counts come from the prefix automaton; each row's decimals are products
    of big ints written with str() (reference_decimal) and its fraction is
    str() of a Fraction.  JSON is json.dumps(indent=2) of the whole payload,
    with ints past 2**53 - 1 as strings; CSV goes through csv.writer; text
    aligns the columns, right-justifying n and tau.
    """
    pattern = typed.strip().translate(str.maketrans("HhTt", "1100"))
    m = len(pattern)
    sigma, tau = automaton_sigma_tau(pattern, horizon)
    header = ["n", "tau", "probability", "decimal", "cumulative", "residual"]
    rows = [
        [n, tau[n], str(Fraction(tau[n], 2**n)), reference_decimal(tau[n], n),
         reference_decimal(2**n - sigma[n], n), reference_decimal(sigma[n], n)]
        for n in range(m, horizon + 1)
    ]
    residual = str(Fraction(sigma[horizon], 2**horizon))
    if fmt == "json":
        safe = [[n, t if t < 2**53 else str(t), *rest] for n, t, *rest in rows]
        payload = {
            "command": "dist",
            "inputs": {"pattern": typed, "horizon": horizon},
            "results": {"rows": [dict(zip(header, row)) for row in safe],
                        "residual": residual},
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerows([header, *rows])
        return buffer.getvalue()
    cells = [header] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    heads_tails = pattern.translate(str.maketrans("10", "HT"))
    lines = [f"pattern {pattern} ({heads_tails}), horizon {horizon}"]
    for row in cells:
        padded = [cell.rjust(w) if i < 2 else cell.ljust(w)
                  for i, (cell, w) in enumerate(zip(row, widths))]
        lines.append("  ".join(padded).rstrip())
    lines += ["", f"mass not yet seen by the horizon: {residual} = {rows[-1][-1]}"]
    return "".join(line + "\n" for line in lines)


def csv_rewritten(text: str) -> str:
    """text read by csv.reader and written back by csv.writer."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(csv.reader(io.StringIO(text)))
    return buffer.getvalue()


def operational_correlation(pattern: str) -> tuple[int, ...]:
    """Overlap coefficients extracted the roundabout way.

    A game ending with the pattern, truncated j symbols past its end, could
    itself be a game ending at that order only if some choice of the bits
    before the truncation window makes its last m symbols spell the full
    pattern.  c_j records whether any such choice exists.
    """
    m = len(pattern)
    coeffs = []
    for j in range(1, m + 1):
        tail = pattern[:j]
        possible = any(
            "".join(free) + tail == pattern
            for free in product("01", repeat=m - j)
        )
        coeffs.append(1 if possible else 0)
    return tuple(coeffs)


def overlap_table(
    lengths, include_complements: bool
) -> list[tuple[int, int, tuple[str, ...]]]:
    """(length, average, patterns) rows by the overlap rule, code by code.

    Each pattern of length L is its integer code v.  Its length-j prefix is
    v >> (L - j) and its length-j suffix v & (2**j - 1), so its average is
    2**L plus 2**j for every 1 <= j < L where the two agree; all L - 1
    overlaps of every code are tested.  Rows are grouped as the table's are:
    lengths in the order given, averages ascending, patterns ascending.
    """
    rows = []
    for length in lengths:
        groups: dict[int, list[str]] = {}
        start = 0 if include_complements else 1 << (length - 1)
        for v in range(start, 1 << length):
            average = (1 << length) + sum(
                1 << j
                for j in range(1, length)
                if v >> (length - j) == v & ((1 << j) - 1)
            )
            groups.setdefault(average, []).append(format(v, f"0{length}b"))
        rows += [(length, a, tuple(groups[a])) for a in sorted(groups)]
    return rows


def overlap_averages(length: int, include_complements: bool) -> np.ndarray:
    """The average of every listed code of one length, by the overlap rule.

    The numpy form of overlap_table: entry i is the average of code
    start + i, where start is 0 with complements and 2**(length - 1)
    without, so the codes ascend.  It is 2**length plus 2**j for every
    1 <= j < length with v >> (length - j) == v & (2**j - 1), each j tested
    over the whole arange of codes at once.
    """
    start = 0 if include_complements else 1 << (length - 1)
    codes = np.arange(start, 1 << length, dtype=np.int64)
    averages = np.full(codes.size, 1 << length, dtype=np.int64)
    for j in range(1, length):
        averages[codes >> (length - j) == codes & ((1 << j) - 1)] += 1 << j
    return averages


def longest_prefix_suffix_state(pattern: str, stream: str) -> int:
    """Matcher state after a toss stream, computed from the definition.

    len(pattern) once the pattern has appeared anywhere; otherwise the
    largest k for which the stream ends with the pattern's length-k prefix.
    """
    m = len(pattern)
    if pattern in stream:
        return m
    for k in range(min(m - 1, len(stream)), -1, -1):
        if k == 0 or stream.endswith(pattern[:k]):
            return k
    raise AssertionError("unreachable")


def prefix_automaton(pattern: str) -> tuple[tuple[int, int], ...]:
    """Longest-prefix matcher for a pattern, as a transition table.

    Row k is state k (the stream ends with the pattern's length-k prefix
    and no longer one); entry b is the state after appending bit b.  There
    are m live states; state m, "pattern complete", absorbs and has no row.
    The pattern's own next bit advances k to k + 1; the other bit falls
    back to the move from the failure state, found by the classic KMP
    failure function.
    """
    m = len(pattern)
    failure = [0] * m
    k = 0
    for i in range(1, m):
        while k > 0 and pattern[i] != pattern[k]:
            k = failure[k - 1]
        if pattern[i] == pattern[k]:
            k += 1
        failure[i] = k
    table: list[tuple[int, int]] = []
    for k in range(m):
        row = []
        for b in "01":
            if b == pattern[k]:
                row.append(k + 1)
            elif k == 0:
                row.append(0)
            else:
                row.append(table[failure[k - 1]][int(b)])
        table.append(tuple(row))
    return tuple(table)


def automaton_sigma_tau(pattern: str, horizon: int) -> tuple[list[int], list[int]]:
    """The same counts by pushing state-occupancy counts through the matcher.

    One step appends one toss to every avoiding string: counts move along
    the automaton's transitions, and whatever reaches the absorbing state
    is that step's tau.
    """
    table = prefix_automaton(pattern)
    m = len(pattern)
    occupancy = [1] + [0] * (m - 1)  # the empty string sits at state 0
    sigma = [1]
    tau = [0]
    for _ in range(horizon):
        stepped = [0] * m
        absorbed = 0
        for k, count in enumerate(occupancy):
            for target in table[k]:
                if target == m:
                    absorbed += count
                else:
                    stepped[target] += count
        occupancy = stepped
        sigma.append(sum(stepped))
        tau.append(absorbed)
    return sigma, tau


def raw_word_reader(seed: int) -> Callable[[int], np.ndarray]:
    """The simulator's reads from `seed`, as a function of k.

    The returned read(k) takes the next ceil(k / 64) raw 64-bit words of a
    PCG64 generator seeded with `seed` and joins them into one int, word w
    at bits 64*w .. 64*w + 63; the k tosses are that int's low k bits,
    lowest first, cut off with a mask and spelled out in binary as an
    array of 0s and 1s.  The rest of the last word is dropped.
    """
    raw = np.random.PCG64(seed).random_raw

    def read(k: int) -> np.ndarray:
        words = raw(-(-k // 64)).astype("<u8").tobytes()
        bits = int.from_bytes(words, "little") & ((1 << k) - 1)
        digits = f"{bits:0{k}b}"[::-1].encode()
        return np.frombuffer(digits.translate(_DIGIT_VALUES), np.uint8)

    return read


_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def per_toss_simulation(
    pattern: str, trials: int, seed: int, max_tosses: int | None = None
) -> tuple[float, float, int] | None:
    """Monte Carlo games played one toss per live game per round, in blocks.

    A block of B rounds keeps one live set of k games and makes one read of
    B * k tosses from raw_word_reader(seed).  Round r of the block takes
    tosses r*k .. r*k + k - 1 of that read, one for each live game in trial
    order, and shifts it into that game's window of its last m tosses.  A
    game ends at its first completion and ignores its later tosses in the
    block; the games that ended leave the live set when the block ends.  B
    is 1 while k * m > 2**15 and min(2**m, 2**16 // k, tosses left under
    the cap) otherwise; no game ends before its own toss m.  Returns
    (sample mean, standard error of the mean, longest game), or None when
    some game is still live after `max_tosses` tosses (no limit when None).
    The statistics come from the exact sums of the game lengths and of
    their squares: the mean is one int division, the standard error the
    square root of the unbiased variance over trials, taken to 100 digits
    and then made a float.
    """
    m = len(pattern)
    pval = np.uint64(int(pattern, 2))
    mask = np.uint64((1 << m) - 1)
    one = np.uint64(1)
    read = raw_word_reader(seed)

    lengths = np.zeros(trials, dtype=np.int64)
    # the live games, in trial order, and each one's window at the same index
    alive = np.arange(trials, dtype=np.int64)
    window = np.zeros(trials, dtype=np.uint64)
    tosses = 0
    while alive.size:
        if alive.size * m > 2**15:
            block = 1
        else:
            block = min(2**m, 2**16 // alive.size)
        if max_tosses is not None:
            block = min(block, max_tosses - tosses)
            if block <= 0:
                return None
        finished = np.zeros(alive.size, dtype=bool)
        for row in read(block * alive.size).reshape(block, alive.size):
            tosses += 1
            window <<= one
            window |= row
            window &= mask
            if tosses >= m:
                hit = window == pval
                if np.count_nonzero(hit):
                    first = hit & ~finished
                    lengths[alive[first]] = tosses
                    finished |= first
        alive = alive[~finished]
        window = window[~finished]

    played = lengths.tolist()
    total = sum(played)
    squares = sum(t * t for t in played)
    stderr = 0.0
    if trials > 1:
        with localcontext() as ctx:
            ctx.prec = 100
            variance = Decimal(trials * squares - total * total) / (
                trials * trials * (trials - 1)
            )
            stderr = float(variance.sqrt())
    return total / trials, stderr, max(played)
