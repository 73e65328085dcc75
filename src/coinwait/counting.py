"""Exact avoidance and first-occurrence counting from the pattern's overlaps.

Two integer sequences carry the whole story for a pattern of length m:

* sigma_n: how many length-n toss strings avoid the pattern entirely.
* tau_n:   how many length-n strings contain it exactly once, flush at
           the right-hand end (the game ends on toss n).

Both follow from the self-overlaps alone (Guibas & Odlyzko, "String
overlaps, pattern matching, and nontransitive games", JCTA 30, 1981):

    2 sigma_{n-1} = sigma_n + tau_n                  (doubling)
    sigma_k = sum_{j: c_j = 1} tau_{k+j}             (expansion)

A toss appended to an avoiding string keeps it avoiding or ends its game.
The pattern appended to an avoiding string of length k ends its game at
k + j for one overlap length j, and each such game arises once.  The engine
is the two identities: tau_n = 0 for n < m, the expansion at k = n - m
gives tau_n = sigma_{n-m} - sum_{j < m: c_j = 1} tau_{n-m+j} for n >= m,
and doubling gives sigma_n.  Telescoping the doubling identity gives an
exact dyadic mass balance; verify_identities checks all three.

The engine is a generator that keeps only its last m terms, in two forms.
_counts yields (sigma_n, tau_n) as Python ints, so counts of any size stay
exact and there is no overflow to guard against; each step is shifts and
subtractions only.  occurrence_counts collects it and
first_occurrence_distribution keeps only its taus; mean_via_sigma_series
sums it and verify_identities checks it as it goes, so those two hold O(m)
terms however far the horizon.  _scaled_counts runs the same two
identities on the weighted counts S_n = sigma_n 5**n and T_n = tau_n 5**n
(per-toss weight 5) as exact Decimals:

    T_n = 5**m S_{n-m} - sum_{j < m: c_j = 1} 5**(m-j) T_{n-m+j}
    S_n = 10 S_{n-1} - T_n

Since tau_n / 2**n = T_n / 10**n, these are the base-10 numerators of the
distribution's decimals, and each step multiplies only by small constants.
All of its arithmetic runs in dyadic.EXACT_DECIMAL, never in the caller's
decimal context.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from decimal import Decimal
from itertools import islice

from .dyadic import EXACT_DECIMAL, DyadicRational
from .errors import InvalidHorizonError, InvalidIndexError
from .pattern import CorrelationSet, Pattern, correlation_set

__all__ = [
    "OccurrenceCounts",
    "IdentityReport",
    "occurrence_counts",
    "closed_form_tau",
    "fibonacci",
    "first_occurrence_distribution",
    "mean_via_sigma_series",
    "verify_identities",
]


def fibonacci(n: int) -> int:
    """F_n with F_0 = 0, F_1 = 1, computed exactly.

    >>> [fibonacci(k) for k in range(8)]
    [0, 1, 1, 2, 3, 5, 8, 13]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@dataclass(frozen=True, slots=True)
class OccurrenceCounts:
    """Exact sigma/tau sequences for one pattern up to a horizon."""

    pattern: Pattern
    horizon: int
    sigma: tuple[int, ...]
    tau: tuple[int, ...]


def occurrence_counts(p: Pattern, horizon: int) -> OccurrenceCounts:
    """Count avoiding strings and first completions for lengths 0..horizon.

    sigma_0 = 1 (the empty string) and tau_0 = 0; each later tau_n comes
    from the overlap expansion and sigma_n from the doubling identity.

    >>> counts = occurrence_counts(Pattern((1, 1)), 9)
    >>> counts.sigma == tuple(fibonacci(n + 2) for n in range(10))
    True
    """
    if horizon < 0:
        raise InvalidHorizonError(f"horizon must be >= 0, got {horizon}")
    sigma, tau = [1], [0]
    for s, t in islice(_counts(p), horizon):
        sigma.append(s)
        tau.append(t)
    return OccurrenceCounts(p, horizon, tuple(sigma), tuple(tau))


def _counts(p: Pattern) -> Iterator[tuple[int, int]]:
    """Yield (sigma_n, tau_n) for n = 1, 2, ..., without end."""
    m = len(p)
    proper = correlation_set(p).overlap_lengths()[:-1]
    last_sigma, last_tau = _window(m, 1, 0), _window(m, 0, 0)
    while True:
        t = last_sigma[0]
        for j in proper:
            t -= last_tau[j]
        s = (last_sigma[-1] << 1) - t
        last_sigma.append(s)
        last_tau.append(t)
        yield s, t


def _scaled_counts(p: Pattern) -> Iterator[tuple[Decimal, Decimal]]:
    """Yield (sigma_n * 5**n, tau_n * 5**n) as exact Decimals for n = 1, 2, ...

    The same engine as _counts with per-toss weight 5, in EXACT_DECIMAL.
    """
    exact = EXACT_DECIMAL
    m = len(p)
    top = exact.power(5, m)
    proper = correlation_set(p).overlap_lengths()[:-1]
    weights = [(j, exact.power(5, m - j)) for j in proper]
    zero = Decimal(0)
    last_sigma, last_tau = _window(m, Decimal(1), zero), _window(m, zero, zero)
    while True:
        t = exact.multiply(top, last_sigma[0])
        for j, weight in weights:
            t = exact.subtract(t, exact.multiply(weight, last_tau[j]))
        s = exact.subtract(exact.scaleb(last_sigma[-1], 1), t)
        last_sigma.append(s)
        last_tau.append(t)
        yield s, t


def _window(m: int, first, zero) -> deque:
    """The last m terms, n - m .. n - 1, while the engine computes term n.

    Index j holds term n - m + j.  It starts at n = 1, with first as term 0
    and zeros for n < 0, so the expansion gives tau_n = 0 for 0 < n < m by
    itself.
    """
    return deque([zero] * (m - 1) + [first], maxlen=m)


# Closed forms for the four families with classical answers.  Each maps the
# string length n to the number of strings whose game ends exactly on toss n.
_CLOSED_FORMS = {
    "01": lambda n: n - 1,
    "11": lambda n: fibonacci(n - 1),
    "100": lambda n: fibonacci(n) - 1,
    "110": lambda n: fibonacci(n) - 1,
}


def closed_form_tau(family: str, n: int) -> int:
    """First-completion count tau_n for the families 01, 11, 100, 110.

    01 gives n - 1; 11 gives F_{n-1}; 100 and 110 both give F_n - 1.
    Only defined from n = len(family) upward.
    """
    try:
        form = _CLOSED_FORMS[family]
    except KeyError:
        raise ValueError(
            f"no closed form for {family!r}; choose from {sorted(_CLOSED_FORMS)}"
        ) from None
    if n < len(family):
        raise InvalidIndexError(
            f"tau is undefined below the pattern length ({n} < {len(family)})"
        )
    return form(n)


def first_occurrence_distribution(
    p: Pattern, horizon: int
) -> tuple[DyadicRational, ...]:
    """Exact probabilities p_n = tau_n / 2**n for n = 0..horizon.

    p_n is the chance the game ends exactly on toss n.  The mass not yet
    seen by the horizon is exactly sigma_N / 2**N.  The engine's taus are
    taken as it runs, and no sigma is kept.
    """
    if horizon < len(p):
        raise InvalidHorizonError(
            f"horizon {horizon} is below the pattern length {len(p)}"
        )
    steps = enumerate(islice(_counts(p), horizon), 1)
    return (DyadicRational(0, 0), *(DyadicRational(t, n) for n, (_, t) in steps))


def mean_via_sigma_series(p: Pattern, horizon: int) -> DyadicRational:
    """Partial sum of sigma_n / 2**n for n = 0..horizon, exactly.

    The full series equals the expected waiting time; partial sums increase
    monotonically toward it, and the caller judges convergence from the
    exact residual (the series is a verification path, the closed form is
    the source of truth).  The sum is taken as the engine runs, so only its
    last few terms and the running sum are held.
    """
    if horizon < 0:
        raise InvalidHorizonError(f"horizon must be >= 0, got {horizon}")
    total = 1  # sigma_0
    for s, _ in islice(_counts(p), horizon):
        total = (total << 1) + s  # Horner: sum of sigma_n * 2**(horizon - n)
    return DyadicRational(total, horizon)


@dataclass(frozen=True, slots=True)
class IdentityReport:
    """Outcome of the exact identity checks for one pattern.

    Each failure list holds the indices n where the identity broke; all
    three empty means every identity held at every index.
    """

    pattern: Pattern
    horizon: int
    correlation: CorrelationSet
    doubling_failures: tuple[int, ...]
    expansion_failures: tuple[int, ...]
    telescoping_failures: tuple[int, ...]

    @property
    def all_hold(self) -> bool:
        return not (
            self.doubling_failures
            or self.expansion_failures
            or self.telescoping_failures
        )


def verify_identities(p: Pattern, horizon: int) -> IdentityReport:
    """Check the three exact identities tying sigma, tau and the overlaps.

    (a) doubling:     2 * sigma_{n-1} == sigma_n + tau_n         (1 <= n <= N)
    (b) expansion:    sigma_n == sum_{j: c_j=1} tau_{j+n}        (0 <= n <= N-m)
    (c) telescoping:  sum_{m<=n<=q} tau_n / 2**n == 1 - sigma_q / 2**q
                      at every q from m to N, checked exactly in integers
                      as sum_{m<=n<=q} tau_n * 2**(q-n) == 2**q - sigma_q.

    Each identity is checked as the engine's terms arrive, so only the last
    m + 1 sigmas, the last m taus and the running mass of (c) are held:
    memory is O(m) terms, however far the horizon.  (b) at k = n - m waits
    for tau_n.

    The engine computes tau from (b) and sigma from (a), so both hold by
    construction and (c) follows from (a): they check the engine's
    arithmetic, not the overlap set it was given.

    Failures land in the report rather than raising; they indicate a bug,
    since all three are theorems.
    """
    m = len(p)
    if horizon < 2 * m:
        raise InvalidHorizonError(
            f"need horizon >= 2 * pattern length ({2 * m}), got {horizon}"
        )
    corr = correlation_set(p)
    # tau_{n-m+j} is at index j - 1 of the last m taus
    idx = [j - 1 for j in corr.overlap_lengths()]
    last_sigma = deque([1], maxlen=m + 1)  # sigma_{n-m} .. sigma_n once n >= m
    last_tau = deque(maxlen=m)  # tau_{n-m+1} .. tau_n once n >= m
    doubling, expansion, telescoping = [], [], []
    # (c) times 2**q, so it is checked in integers at q = n: mass is
    # sum_{m<=i<=n} tau_i * 2**(n-i), built by Horner.
    mass = 0
    for n, (s, t) in enumerate(islice(_counts(p), horizon), 1):
        if (last_sigma[-1] << 1) != s + t:
            doubling.append(n)
        last_sigma.append(s)
        last_tau.append(t)
        if n >= m:
            if last_sigma[0] != sum(map(last_tau.__getitem__, idx)):
                expansion.append(n - m)
            mass = (mass << 1) + t
            if mass != (1 << n) - s:
                telescoping.append(n)

    return IdentityReport(
        pattern=p,
        horizon=horizon,
        correlation=corr,
        doubling_failures=tuple(doubling),
        expansion_failures=tuple(expansion),
        telescoping_failures=tuple(telescoping),
    )
