"""The word budget: FANKIT_BUDGET (default 2**20) bounds the words that
one run visits, across all of its scans.  cli.run opens one Meter per run,
and a library call outside a run gets a fresh one per operation.  Every
scan charges it under its operation's name; a charge past the limit fails
loudly instead of hanging, naming the operation, its level where it has
one, the words used and the limit.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar

from .errors import BudgetExceededError, PreconditionError

DEFAULT_BUDGET = 1 << 20

# How far below its start a scan goes.  A walk down one path holds a word
# of every length up to its depth, so its memory and time grow with the
# square of the depth, which the word count does not see.
MAX_SCAN_DEPTH = 1 << 10

# The most digits a count may have: the lowest limit PYTHONINTMAXSTRDIGITS
# accepts (sys.int_info.str_digits_check_threshold), so no interpreter
# setting changes what int() and str() do to a count fankit reads.
MAX_COUNT_DIGITS = 640


def read_count(text: str, what: str = "value") -> int:
    """A count written as text: one or more ASCII digits, leading zeros
    allowed.  Every count fankit reads from outside comes through here;
    other text, or more than MAX_COUNT_DIGITS digits, is a ValueError."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{what} must be nonnegative, in digits 0-9, got {text!r:.40}")
    if len(text) > MAX_COUNT_DIGITS:
        raise ValueError(f"{what} has {len(text)} digits, more than fankit reads")
    return int(text)


def check_nonnegative(n: int, what: str) -> None:
    """Refuse a negative depth, horizon or length given to a library call."""
    if n < 0:
        raise PreconditionError(f"{what} must be nonnegative, got {n}")


class Meter:
    """Words charged so far, and the limit, read when the meter is made."""

    __slots__ = ("used", "limit")

    def __init__(self):
        raw = os.environ.get("FANKIT_BUDGET", str(DEFAULT_BUDGET))
        try:
            self.limit = read_count(raw)
        except ValueError:
            self.limit = 0
        if self.limit <= 0:
            raise BudgetExceededError(f"FANKIT_BUDGET must be a positive integer, got {raw!r:.40}")
        self.used = 0

    def tick(self, operation: str, level: int | None = None, n: int = 1) -> None:
        """Charge n words to the operation, at a level where it has one."""
        self.used += n
        if self.used > self.limit:
            self.refuse(operation, level, self.used)

    def tick_exp(self, exp: int, operation: str, level: int | None = None) -> None:
        """tick for 2^exp words.  Past 64 bits and the limit's bit length it is
        refused by its exponent, so a depth given by the user builds no 2^exp."""
        if exp > max(64, self.limit.bit_length()):
            self.refuse(operation, level, f"{self.used} + 2^{exp}")
        self.tick(operation, level, 1 << exp)

    def refuse(self, operation: str, level: int | None, used) -> None:
        """Fail as a charge past the limit fails, with used words used."""
        where = "" if level is None else f" at level {level}"
        raise BudgetExceededError(f"{operation}{where}: {used} words used, budget {self.limit}")


RUN_METER: ContextVar[Meter | None] = ContextVar("fankit_run_meter", default=None)


def meter() -> Meter:
    """The meter of the run in progress; outside a run, a fresh one."""
    return RUN_METER.get() or Meter()


@contextmanager
def one_meter(m: Meter | None = None):
    """Every scan in the block charges the one meter yielded: m when one is
    given, else the run's, else a fresh one."""
    token = RUN_METER.set(m or meter())
    try:
        yield RUN_METER.get()
    finally:
        RUN_METER.reset(token)


def check_depth(bits: int, operation: str) -> None:
    """Refuse a scan that needs words more than MAX_SCAN_DEPTH bits below
    the word it starts from."""
    if bits > MAX_SCAN_DEPTH:
        raise BudgetExceededError(
            f"{operation} would go {bits} bits deep, past the cap of {MAX_SCAN_DEPTH}")
