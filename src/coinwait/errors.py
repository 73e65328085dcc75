"""Exception types shared across the package."""

__all__ = [
    "CoinwaitError",
    "EmptyPatternError",
    "InvalidSymbolError",
    "InvalidLengthError",
    "InvalidIndexError",
    "InvalidHorizonError",
    "TooLargeError",
    "SimulationRunawayError",
]


class CoinwaitError(Exception):
    """Base class for all errors raised by coinwait."""


class EmptyPatternError(CoinwaitError):
    """The pattern text was empty (after trimming whitespace)."""


class InvalidSymbolError(CoinwaitError):
    """A pattern character was not a coin symbol, or mixed 0/1 with H/T.

    Attributes:
        symbol: the offending character.
        index:  its position within the trimmed input text.
    """

    def __init__(self, symbol: str, index: int):
        self.symbol = symbol
        self.index = index
        super().__init__(f"invalid symbol {symbol!r} at index {index}")


class InvalidLengthError(CoinwaitError):
    """A pattern length argument was outside its allowed range."""


class InvalidIndexError(CoinwaitError):
    """An index was below the pattern length, where counts are undefined."""


class InvalidHorizonError(CoinwaitError):
    """A horizon was too small for the requested computation."""


class TooLargeError(CoinwaitError):
    """The request would exceed a hard size ceiling."""


class SimulationRunawayError(CoinwaitError):
    """A simulated game was still live at the per-game toss cap.

    The default cap is sized to the pattern length and the number of
    games, so that a fair coin reaches it with probability at most 1e-12
    per call; reaching it signals a bug in the simulator rather than bad
    luck.  A caller-supplied cap can of course be reached by chance.
    """
