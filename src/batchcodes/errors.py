"""Exception types shared across the package, and the integer rule.

Every size, count, index, bit and word an entry point takes is checked
by `check_int` (or `check_cap` for an optional cap), which lives here
because every other module imports this one and this one imports
nothing of the package. The rule is one; the exception class is the
caller's contract:
- ValueError for parameters, guards and bits;
- DimensionError for vector and matrix lengths, words, positions, rows
  and columns, excluded columns included;
- InvalidQueryError for query and symbol indices.
"""

from __future__ import annotations

import operator

__all__ = [
    "BatchCodeError",
    "DimensionError",
    "CapacityError",
    "MatrixParseError",
    "RankDeficiencyError",
    "InvalidTargetError",
    "InvalidQueryError",
    "NotSystematicError",
    "NotApplicableError",
    "InsufficientDataError",
]


class BatchCodeError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(BatchCodeError):
    """Operands have incompatible lengths or shapes."""


class CapacityError(BatchCodeError):
    """Input exceeds a configured exhaustive-computation guard."""


class MatrixParseError(BatchCodeError):
    """Matrix text is malformed; carries the offending position."""

    def __init__(self, message: str, line: int, column: int | None = None):
        self.line = line
        self.column = column
        where = f"line {line}"
        if column is not None:
            where += f", column {column}"
        super().__init__(f"{where}: {message}")


class RankDeficiencyError(BatchCodeError):
    """Generator matrix rows are linearly dependent."""


class InvalidTargetError(BatchCodeError):
    """Recovery target is zero or otherwise unusable."""


class InvalidQueryError(BatchCodeError):
    """Query is empty, malformed, or indexes a nonexistent symbol."""


class NotSystematicError(BatchCodeError):
    """Operation requires a code with an embedded identity."""


class NotApplicableError(BatchCodeError):
    """Bound preconditions fail for the given parameters."""


class InsufficientDataError(BatchCodeError):
    """A required table entry is missing; carries the missing key."""

    def __init__(self, message: str, missing: tuple[int, int]):
        self.missing = missing
        super().__init__(message)


def check_int(
    name: str,
    value: int,
    least: int = 1,
    most: int | None = None,
    error: type[Exception] = ValueError,
) -> int:
    """`value` checked as an integer in `least`..`most` (no upper limit
    when `most` is None): the integer is returned as `operator.index`
    gives it (True is 1), anything else raises `error` naming the
    parameter `name`. 2.5, 2.0 and "2" are rejected, not truncated or
    converted.

    The paper's parameters and bounds are integers, and so is every
    symbol, column and position; the recovery search stops at depth
    `max_size` and at `max_count` + 1 sets by equality, so a fractional
    cap would never stop it.
    """
    if type(value) is int and least <= value and (most is None or value <= most):
        return value  # the common case, kept cheap for valid input
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or number < least or most is not None and number > most:
        span = f">= {least}" if most is None else f"in {least}..{most}"
        raise error(f"{name} must be an integer {span}, got {value!r}")
    return number


def check_cap(name: str, value: int | None) -> int | None:
    """`value` checked as a size or count cap: None (no cap), or an
    integer >= 1 as `check_int` checks it."""
    return None if value is None else check_int(name, value)
