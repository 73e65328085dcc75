"""Independent exact answers used by the benchmark's correctness gates.

Nothing here imports coinwait.  The counting engine under test walks a
prefix automaton; this module instead uses the Guibas-Odlyzko recurrence
(JCTA 30, 1981) on the pattern's autocorrelation, so agreement between the
two is a real cross-check.  Sequences are produced as streams that keep only
the last m + 1 terms, which keeps the gates' memory out of the run's peak
RSS.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Sequence


def overlap_lengths(bits: Sequence[int]) -> list[int]:
    """Lengths j (ascending, m included) whose j-prefix equals the j-suffix.

    Follows the KMP failure chain from the full pattern, so it is linear in
    the pattern length.
    """
    m = len(bits)
    fail = [0] * m
    k = 0
    for i in range(1, m):
        while k and bits[i] != bits[k]:
            k = fail[k - 1]
        if bits[i] == bits[k]:
            k += 1
        fail[i] = k
    lengths = [m]
    j = fail[m - 1]
    while j:
        lengths.append(j)
        j = fail[j - 1]
    return lengths[::-1]


def expected_wait(bits: Sequence[int]) -> int:
    """Exact mean waiting time: the sum of 2**j over the overlap lengths."""
    return sum(1 << j for j in overlap_lengths(bits))


def sigma_tau(bits: Sequence[int], horizon: int) -> Iterator[tuple[int, int, int]]:
    """Yield (n, sigma_n, tau_n) for n = 0..horizon.

    sigma_n counts length-n strings avoiding the pattern and tau_n those
    whose first occurrence ends at toss n.  For n >= m the avoidance
    generating function c(z) / (z**m + (1 - 2z) c(z)) gives

        sigma_n = 2 sigma_{n-1} - sigma_{n-m}
                  - sum_{i in I, i > 0} (sigma_{n-i} - 2 sigma_{n-1-i}),

    where I holds the shifts m - j of the overlap lengths j, and the
    doubling identity gives tau_n = 2 sigma_{n-1} - sigma_n.
    """
    m = len(bits)
    shifts = [m - j for j in overlap_lengths(bits) if j != m]
    window: deque[int] = deque(maxlen=m + 1)  # sigma_{n-m-1} .. sigma_{n-1}
    for n in range(horizon + 1):
        if n < m:
            sigma = 1 << n
        else:
            w = window  # w[-k] is sigma_{n-k}
            sigma = 2 * w[-1] - w[-m]
            for i in shifts:
                sigma -= w[-i] - 2 * w[-i - 1]
        tau = 2 * window[-1] - sigma if n else 0
        window.append(sigma)
        yield n, sigma, tau


def sigma_series(bits: Sequence[int], horizon: int) -> tuple[int, int]:
    """sum_{n <= horizon} sigma_n / 2**n as a canonical (numerator, exponent).

    The numerator is odd unless the exponent is 0, matching the canonical
    form of coinwait's DyadicRational.
    """
    total = 0
    for _, sigma, _ in sigma_tau(bits, horizon):
        total = 2 * total + sigma  # Horner: denominator 2**horizon at the end
    exponent = horizon
    if total == 0:
        return 0, 0
    shift = min((total & -total).bit_length() - 1, exponent)
    return total >> shift, exponent - shift
