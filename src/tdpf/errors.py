"""Exception types, and the checks every config value passes.

The CLI maps the exceptions onto exit codes: SchemaError and InvalidInputError
(which includes UnsupportedOrderError and BudgetExceededError) -> 2,
ConvergenceError and NumericalBlowUpError -> 3, OutOfRegimeError -> 4, and
any other exception -> 5 (an internal error; exit 1 is reserved for a flagged
bound violation).

Every number, integer, list of them, choice and required key that comes from
outside the program (a config or model file, ``--oracle-tol``, ``--workers``,
``TDPF_WORKERS``) passes the matching check below before any code uses it,
and a failed check raises SchemaError naming the dotted field and the value
(shortened when long).  A list whose entries each make their own rows (the
orders, ``J_values``, ``N_values`` and ``eps_values``) must not repeat an
entry, which would repeat its rows and count them twice in a fit.  A
number is a JSON integer or float that converts to a finite float; an
integer is a JSON integer.  Neither is ever a boolean, although Python
counts ``true`` as 1.  A choice matches on type as well as value, so ``0``
never matches ``false``, and a list or object is rejected, not hashed.
"""

from __future__ import annotations

import json
import reprlib
import sys


class InvalidInputError(ValueError):
    """Malformed or out-of-contract input (non-finite entries, bad dims, ...)."""


class UnsupportedOrderError(InvalidInputError):
    """Requested formula order is outside what this routine enumerates."""


class BudgetExceededError(InvalidInputError):
    """A derivative of higher order than the curve's declared budget was requested."""


class NumericalBlowUpError(InvalidInputError):
    """A value overflowed or became NaN inside the computation (config
    numbers are checked finite)."""


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


def number(val, field: str, positive: bool = False) -> float:
    """``val`` as a float: a finite number (> 0 if ``positive``).  An integer
    too large for a float is not finite."""
    if (isinstance(val, bool) or not isinstance(val, (int, float))
            or not abs(val) <= sys.float_info.max or (positive and not val > 0)):
        raise SchemaError(field, f"expected a {'positive' if positive else 'finite'}"
                                 f" number, got {reprlib.repr(val)}")
    return float(val)


def integer(val, field: str, minimum: int) -> int:
    """``val`` if it is an integer >= ``minimum``."""
    if isinstance(val, bool) or not isinstance(val, int) or val < minimum:
        raise SchemaError(field, f"expected an integer >= {minimum}, got {reprlib.repr(val)}")
    return val


def list_of(vals, field: str, check, *args, distinct: bool = False) -> list:
    """A non-empty list, each entry passed through ``check(entry, field,
    *args)`` (``number`` or ``integer``), so its errors name the list; with
    ``distinct``, no entry may repeat."""
    if not isinstance(vals, list) or not vals:
        raise SchemaError(field, f"expected a non-empty list, got {reprlib.repr(vals)}")
    checked = [check(val, field, *args) for val in vals]
    if distinct and len(set(checked)) != len(checked):
        raise SchemaError(field, f"expected distinct entries, got {reprlib.repr(vals)}")
    return checked


def one_of(val, field: str, choices: tuple):
    """``val`` if it is one of ``choices``: strings, or ``(True, False)``."""
    if not any(isinstance(val, bool) == isinstance(c, bool) and val == c for c in choices):
        raise SchemaError(field, f"expected one of {', '.join(map(json.dumps, choices))},"
                                 f" got {reprlib.repr(val)}")
    return val


def required(obj: dict, key: str, field: str, kind: type = object):
    """``obj[key]``, which the object at ``field`` must have; ``kind`` (dict
    for a JSON object, or list) also fixes its type."""
    if key not in obj:
        raise SchemaError(f"{field}.{key}", "missing required field")
    if not isinstance(obj[key], kind):
        raise SchemaError(f"{field}.{key}",
                          f"expected a {kind.__name__}, got {reprlib.repr(obj[key])}")
    return obj[key]
