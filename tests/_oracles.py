"""Reference implementations used only by tests.

Everything here is deliberately written against plain Python strings and
dicts, with none of the library's machinery, so that agreement between the
two sides is meaningful evidence rather than the same code twice.
"""

from itertools import product


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
