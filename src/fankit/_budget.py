"""Enumeration budget shared by every exponential scan.

The default allows 2**20 enumerated words per operation; the FANKIT_BUDGET
environment variable overrides it.  Scans fail loudly instead of hanging.
"""

from __future__ import annotations

import os

from .errors import BudgetExceededError

DEFAULT_BUDGET = 1 << 20

# How far below its root a pruned scan goes.  A walk down one path holds a
# word of every length up to its depth, so its memory and time grow with
# the square of the depth, which the visit count does not see; at 1024
# bits that stays a few megabytes.
MAX_SCAN_DEPTH = 1 << 10


def enumeration_budget() -> int:
    raw = os.environ.get("FANKIT_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise BudgetExceededError(f"FANKIT_BUDGET is not an integer: {raw!r}") from exc
    if value <= 0:
        raise BudgetExceededError(f"FANKIT_BUDGET must be positive, got {value}")
    return value


def check_enumeration(count: int, operation: str | None = None) -> None:
    """Fail if a scan of `count` words would exceed the budget; the error
    names the operation when one is given."""
    budget = enumeration_budget()
    if count > budget:
        _refuse(str(count), operation, budget)


def check_enumeration_exp(exp: int, operation: str | None = None) -> None:
    """check_enumeration for a scan of 2^exp words.  The count is compared
    by its exponent and named as a power, so a depth given by the user
    never builds a huge integer: 2^exp exceeds the budget exactly when exp
    reaches the budget's bit length."""
    budget = enumeration_budget()
    if exp >= budget.bit_length():
        _refuse(f"2^{exp}", operation, budget)


def _refuse(count: str, operation: str | None, budget: int) -> None:
    if operation is None:
        raise BudgetExceededError(f"scan of {count} words exceeds budget {budget}")
    raise BudgetExceededError(f"{operation} needs {count} words, budget {budget}")


class ScanMeter:
    """Counts visited nodes in a pruned search against the budget.  A meter
    given an operation names it, and counts words, in its refusal."""

    __slots__ = ("visits", "limit", "operation")

    def __init__(self, limit: int | None = None, operation: str | None = None):
        self.visits = 0
        self.limit = limit if limit is not None else enumeration_budget()
        self.operation = operation

    def tick(self, n: int = 1) -> None:
        self.visits += n
        if self.visits > self.limit:
            what, unit = ("scan", "nodes") if self.operation is None else (self.operation, "words")
            raise BudgetExceededError(f"{what} visited {self.visits} {unit}, budget {self.limit}")
