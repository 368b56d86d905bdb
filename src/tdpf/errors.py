"""Shared exception types.

The CLI maps these onto exit codes: SchemaError and InvalidInputError (which
includes UnsupportedOrderError and BudgetExceededError) -> 2,
ConvergenceError and NumericalBlowUpError -> 3, OutOfRegimeError -> 4, and
any other exception -> 5 (an internal error; exit 1 is reserved for a flagged
bound violation).
"""

from __future__ import annotations


class InvalidInputError(ValueError):
    """Malformed or out-of-contract input (non-finite entries, bad dims, ...)."""


class UnsupportedOrderError(InvalidInputError):
    """Requested formula order is outside what this routine enumerates."""


class BudgetExceededError(InvalidInputError):
    """A derivative of higher order than the curve's declared budget was requested."""


class NumericalBlowUpError(InvalidInputError):
    """A matrix reached the dense kernels with non-finite entries: an overflow
    or NaN inside the computation, since config numbers are checked finite."""


class ConvergenceError(RuntimeError):
    """An iterative routine hit its step cap before reaching the target tolerance."""

    def __init__(self, message: str, last_disagreement: float | None = None):
        super().__init__(message)
        self.last_disagreement = last_disagreement


class OutOfRegimeError(RuntimeError):
    """A bound's small-time validity condition is violated; the bound is not asserted."""


class SchemaError(ValueError):
    """Config or model file violates its schema. Carries the offending field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
