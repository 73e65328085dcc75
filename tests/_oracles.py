"""Reference implementations used only by tests.

Everything here is deliberately written against plain Python strings and
dicts, with none of the library's machinery, so that agreement between the
two sides is meaningful evidence rather than the same code twice.
"""

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


def per_toss_simulation(
    pattern: str, trials: int, seed: int, max_tosses: int | None = None
) -> tuple[float, float, int] | None:
    """Monte Carlo games played one toss per live game per round.

    Every round draws one fair bit for each live game, in trial order, from
    a PCG64 generator seeded with `seed`, and shifts it into that game's
    window of its last m tosses.  Returns (sample mean, standard error of
    the mean, longest game), or None when some game is still live after
    `max_tosses` tosses (no limit when None).
    """
    m = len(pattern)
    pval = np.uint64(int(pattern, 2))
    mask = np.uint64((1 << m) - 1)
    one = np.uint64(1)
    rng = np.random.Generator(np.random.PCG64(seed))

    window = np.zeros(trials, dtype=np.uint64)
    lengths = np.zeros(trials, dtype=np.int64)
    alive = np.arange(trials, dtype=np.int64)
    tosses = 0
    while alive.size:
        tosses += 1
        if max_tosses is not None and tosses > max_tosses:
            return None
        bits = rng.integers(0, 2, size=alive.size, dtype=np.uint64)
        current = ((window[alive] << one) | bits) & mask
        window[alive] = current
        if tosses >= m:
            finished = current == pval
            lengths[alive[finished]] = tosses
            alive = alive[~finished]

    mean = float(lengths.mean())
    stderr = float(lengths.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr, int(lengths.max())
