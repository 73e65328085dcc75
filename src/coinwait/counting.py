"""Exact avoidance and first-occurrence counting from the pattern's overlaps.

Two integer sequences carry the whole story for a pattern of length m:

* sigma_n: how many length-n toss strings avoid the pattern entirely.
* tau_n:   how many length-n strings contain it exactly once, flush at
           the right-hand end (the game ends on toss n).

Both follow from the self-overlaps alone (Guibas & Odlyzko, "String
overlaps, pattern matching, and nontransitive games", JCTA 30, 1981).  With
c(z) the autocorrelation polynomial, the avoiding strings have generating
function S(z) = c(z) / (z**m + (1 - 2z) c(z)).  Clearing the denominator
gives a sparse integer recurrence over the overlap shifts
I = {m - j : c_j = 1, j < m}:

    sigma_n = 2**n                                           (n < m)
    sigma_n = 2 sigma_{n-1} - sigma_{n-m}
              - sum_{i in I} (sigma_{n-i} - 2 sigma_{n-1-i})  (n >= m)

Appending one toss to every avoiding string either keeps it avoiding or
finishes its game, so 2 * sigma_{n-1} = sigma_n + tau_n (the doubling
identity), and the engine reads tau off it.  The overlaps also give
sigma_n = sum_j c_j * tau_{j+n}, and telescoping the doubling identity
gives an exact dyadic mass balance; verify_identities checks all three.

Everything here is integer arithmetic on Python ints, so counts of any
size stay exact; there is no overflow to guard against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dyadic import DyadicRational
from .errors import InvalidHorizonError, InvalidIndexError
from .pattern import CorrelationSet, Pattern, correlation_set

__all__ = [
    "OccurrenceCounts",
    "IdentityReport",
    "occurrence_counts",
    "extend_counts",
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
    """Exact sigma/tau sequences for one pattern up to a horizon.

    The recurrence looks back at most m terms of sigma, so the sequences
    themselves are all the state needed to resume it (see extend_counts).
    """

    pattern: Pattern
    horizon: int
    sigma: tuple[int, ...]
    tau: tuple[int, ...]


def occurrence_counts(p: Pattern, horizon: int) -> OccurrenceCounts:
    """Count avoiding strings and first completions for lengths 0..horizon.

    sigma_0 = 1 (the empty string) and tau_0 = 0; each later sigma_n comes
    from the overlap recurrence and tau_n from the doubling identity.

    >>> counts = occurrence_counts(Pattern((1, 1)), 9)
    >>> counts.sigma == tuple(fibonacci(n + 2) for n in range(10))
    True
    """
    if horizon < 0:
        raise InvalidHorizonError(f"horizon must be >= 0, got {horizon}")
    return _advance(OccurrenceCounts(p, 0, (1,), (0,)), horizon)


def extend_counts(counts: OccurrenceCounts, horizon: int) -> OccurrenceCounts:
    """Resume a previous computation out to a larger horizon.

    Exact arithmetic makes the split irrelevant: extending counts computed
    to N1 yields bit-identical sequences to a single run out to N2.
    """
    if horizon < counts.horizon:
        raise InvalidHorizonError(
            f"cannot shrink horizon {counts.horizon} to {horizon}"
        )
    return _advance(counts, horizon)


def _advance(counts: OccurrenceCounts, horizon: int) -> OccurrenceCounts:
    p = counts.pattern
    m = len(p)
    # The shifts I of the proper overlaps; the full one is the sigma_{n-m} term.
    shifts = [m - j for j in correlation_set(p).overlap_lengths()[:-1]]
    sigma = list(counts.sigma)
    tau = list(counts.tau)
    for n in range(counts.horizon + 1, horizon + 1):
        twice = sigma[n - 1] << 1
        if n < m:
            s = twice  # 2**n: nothing completes before toss m
        else:
            s = twice - sigma[n - m]
            for i in shifts:
                s -= sigma[n - i] - (sigma[n - 1 - i] << 1)
        tau.append(twice - s)
        sigma.append(s)
    return OccurrenceCounts(p, horizon, tuple(sigma), tuple(tau))


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
    seen by the horizon is exactly sigma_N / 2**N.
    """
    if horizon < len(p):
        raise InvalidHorizonError(
            f"horizon {horizon} is below the pattern length {len(p)}"
        )
    counts = occurrence_counts(p, horizon)
    return tuple(DyadicRational(t, n) for n, t in enumerate(counts.tau))


def mean_via_sigma_series(p: Pattern, horizon: int) -> DyadicRational:
    """Partial sum of sigma_n / 2**n for n = 0..horizon, exactly.

    The full series equals the expected waiting time; partial sums increase
    monotonically toward it, and the caller judges convergence from the
    exact residual (the series is a verification path, the closed form is
    the source of truth).
    """
    total = 0
    for s in occurrence_counts(p, horizon).sigma:
        total = 2 * total + s  # Horner: sum of sigma_n * 2**(horizon - n)
    return DyadicRational(total, horizon)


@dataclass(frozen=True, slots=True)
class IdentityReport:
    """Outcome of the exact identity checks for one pattern.

    counts holds the sigma/tau sequences the identities were checked on.
    Each failure list holds the indices n where the identity broke; all
    three empty means every identity held at every index.
    """

    pattern: Pattern
    horizon: int
    correlation: CorrelationSet
    counts: OccurrenceCounts
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

    The engine reads tau off (a), so (a) holds by construction and (c)
    follows from it.  (b) is the engine's recurrence rearranged, checked
    against the overlap lengths rather than the shifts.  The independent
    evidence is the exhaustive tally, which `coinwait verify` runs once per
    pattern: every tau_n up to its n, and sigma at that n, are compared once.

    Failures land in the report rather than raising; they indicate a bug,
    since all three are theorems.
    """
    m = len(p)
    if horizon < 2 * m:
        raise InvalidHorizonError(
            f"need horizon >= 2 * pattern length ({2 * m}), got {horizon}"
        )
    counts = occurrence_counts(p, horizon)
    corr = correlation_set(p)
    sigma, tau = counts.sigma, counts.tau

    doubling = tuple(
        n for n in range(1, horizon + 1) if 2 * sigma[n - 1] != sigma[n] + tau[n]
    )

    overlaps = corr.overlap_lengths()
    expansion = tuple(
        n
        for n in range(0, horizon - m + 1)
        if sigma[n] != sum(tau[j + n] for j in overlaps)
    )

    # (c) times 2**q, so it is checked in integers: mass is
    # sum_{m<=n<=q} tau_n * 2**(q-n), built by Horner.
    telescoping = []
    mass = 0
    for q in range(m, horizon + 1):
        mass = 2 * mass + tau[q]
        if mass != (1 << q) - sigma[q]:
            telescoping.append(q)

    return IdentityReport(
        pattern=p,
        horizon=horizon,
        correlation=corr,
        counts=counts,
        doubling_failures=doubling,
        expansion_failures=expansion,
        telescoping_failures=tuple(telescoping),
    )
