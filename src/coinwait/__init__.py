"""Exact waiting times for heads/tails patterns on a fair coin.

The central quantity is the expected number of tosses before a chosen
pattern first appears.  It is computed exactly from the pattern's
self-overlap structure, cross-checked by an exact counting engine
(avoidance and first-occurrence counts), and validated against
brute-force enumeration and Monte Carlo simulation.
"""

from .counting import (
    IdentityReport,
    OccurrenceCounts,
    closed_form_tau,
    extend_counts,
    fibonacci,
    first_occurrence_distribution,
    mean_via_sigma_series,
    occurrence_counts,
    verify_identities,
)
from .dyadic import DyadicRational
from .errors import (
    CoinwaitError,
    EmptyPatternError,
    InvalidHorizonError,
    InvalidIndexError,
    InvalidLengthError,
    InvalidSymbolError,
    SimulationRunawayError,
    TooLargeError,
)
from .oracle import ExhaustiveTally, SimulationResult, exhaustive_tally, simulate
from .pattern import (
    CorrelationSet,
    Pattern,
    WaitingTimeReport,
    complement,
    correlation_set,
    expected_profit,
    expected_waiting_time,
    parse_pattern,
    patterns_of_length,
    waiting_time_bounds,
    waiting_time_report,
)
from .table import TableRow, waiting_time_table

__version__ = "0.1.0"

__all__ = [
    "CoinwaitError",
    "CorrelationSet",
    "DyadicRational",
    "EmptyPatternError",
    "ExhaustiveTally",
    "IdentityReport",
    "InvalidHorizonError",
    "InvalidIndexError",
    "InvalidLengthError",
    "InvalidSymbolError",
    "OccurrenceCounts",
    "Pattern",
    "SimulationResult",
    "SimulationRunawayError",
    "TableRow",
    "TooLargeError",
    "WaitingTimeReport",
    "closed_form_tau",
    "complement",
    "correlation_set",
    "expected_profit",
    "expected_waiting_time",
    "extend_counts",
    "fibonacci",
    "first_occurrence_distribution",
    "mean_via_sigma_series",
    "occurrence_counts",
    "parse_pattern",
    "patterns_of_length",
    "simulate",
    "exhaustive_tally",
    "verify_identities",
    "waiting_time_bounds",
    "waiting_time_report",
    "waiting_time_table",
]
