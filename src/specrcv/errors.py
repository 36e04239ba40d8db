"""Exception types shared across the library."""
from __future__ import annotations


class SpecrcvError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteError(SpecrcvError):
    """An input or result contains NaN or infinity."""


class BadSpecError(SpecrcvError):
    """A simulation spec is structurally invalid (shape, sign, bound)."""


class BadGridError(SpecrcvError):
    """An observation or probe grid violates its constraints."""


class BadProfileError(SpecrcvError):
    """A weight profile violates its constraints."""


class BadConfigError(SpecrcvError):
    """An experiment configuration failed validation."""


class ZeroIncrementError(SpecrcvError):
    """An increment row has zero length where a positive norm is required."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"zero-length increment at row {row}")

