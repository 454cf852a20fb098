"""Exception types shared across the package."""

from __future__ import annotations


class HoleburnError(Exception):
    """Base class for errors raised by this package."""


class NoDecayChannelError(HoleburnError):
    """Raised when a branching ratio of exactly 1 leaves no spin-flip decay path."""


class DegenerateSteadyStateError(HoleburnError):
    """Raised when a rate matrix has no unique stationary distribution."""


class GridMismatchError(HoleburnError, ValueError):
    """Raised when two spectra that must share a frequency grid do not."""


class SequenceError(HoleburnError):
    """Raised for ill-formed pulse sequences (overlaps, bad readout delays)."""


class ConfigError(HoleburnError):
    """Raised for invalid experiment configurations.

    ``path`` points at the offending field, e.g. ``"rates.beta"`` or
    ``"sequence[2].duration_ms"``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")
