"""Exact waiting times for heads/tails patterns on a fair coin.

The central quantity is the expected number of tosses before a chosen
pattern first appears.  It is computed exactly from the pattern's
self-overlap structure, cross-checked by an exact counting engine
(avoidance and first-occurrence counts), and validated against an
exhaustive prefix-state tally and Monte Carlo simulation.

Each module declares its public names in its own __all__, and the package
exports all of them.
"""

from . import counting, dyadic, errors, oracle, pattern, table
from .counting import *
from .dyadic import *
from .errors import *
from .oracle import *
from .pattern import *
from .table import *

__version__ = "0.1.0"

__all__ = [
    *counting.__all__,
    *dyadic.__all__,
    *errors.__all__,
    *oracle.__all__,
    *pattern.__all__,
    *table.__all__,
]
