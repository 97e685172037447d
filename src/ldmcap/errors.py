"""Exception types shared across the package, and its one integer check."""

from __future__ import annotations

import operator


def integer(value, name: str, minimum: int | None = None, error=ValueError) -> int:
    """``value`` through ``operator.index`` (no truncation, no parsing), at least ``minimum``.

    Every count, size and seed argument is checked here; a failure raises
    ``error`` (a ``ValueError`` type) with a message naming ``name``.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise error(f"{name} must be at least {minimum}, got {value}")
    return value


class CsvParseError(ValueError):
    """A CSV row could not be parsed; the message names the offending row."""


class InvalidDatasetError(ValueError):
    """The data cannot form a usable labeled dataset (e.g. fewer than two classes)."""


class CapacityLimitError(RuntimeError):
    """The labeling space C**holdout_size is too large to enumerate.

    Carries the offending sizes so callers can report actionable guidance.
    """

    def __init__(self, num_classes: int, holdout_size: int, limit: int):
        self.num_classes = num_classes
        self.holdout_size = holdout_size
        self.limit = limit
        super().__init__(
            f"labeling space {num_classes}**{holdout_size} = "
            f"{num_classes**holdout_size} exceeds the enumerable limit {limit}; "
            "reduce the holdout size or the number of classes"
        )


class MemoryLimitError(RuntimeError):
    """An LDM, charged at twice its size, would not fit in physical memory."""

    def __init__(self, rows: int, columns: int, needed: int, available: int):
        self.needed = needed
        self.available = available
        super().__init__(
            f"a {rows} x {columns} labeling-distribution matrix, charged at twice its "
            f"size, needs {needed:,} bytes, more than the {available:,} bytes of "
            "physical memory; reduce the holdout size (--holdout) or the number of "
            "columns (--k)"
        )


class FitNumericalError(ArithmeticError):
    """A numerical fitting routine produced non-finite intermediates."""

    def __init__(self, message: str, iterations: int):
        self.iterations = iterations
        super().__init__(f"{message} (after {iterations} iterations)")
