"""Finite and infinite binary words.

Finite words are plain tuples of 0/1 integers; the empty word is ().
Infinite sequences are Seq values: a total per-index rule plus a kind tag
recording when a closed form (eventually-constant or periodic) is known.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Union

from ._budget import check_nonnegative, meter
from .errors import OutOfRangeError

Word = tuple
EMPTY: Word = ()


def word(bits: Iterable[int]) -> Word:
    """Build a word, checking every bit is 0 or 1."""
    w = tuple(bits)
    for b in w:
        if b != 0 and b != 1:
            raise ValueError(f"bits must be 0 or 1, got {b!r}")
    return w


# bytes.translate table: the bits 0 and 1 as the digits "0" and "1"
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def format_word(u: Word) -> str:
    """Render as a bit string; the empty word renders as 'e'."""
    return bytes(u).translate(_DIGITS).decode() if u else "e"


def parse_word(text: str) -> Word:
    if text == "e":
        return EMPTY
    if text and all(c in "01" for c in text):
        return tuple(int(c) for c in text)
    raise ValueError(f"not a word literal: {text!r}")


class Seq:
    """Infinite binary sequence given by a total evaluation rule.

    Kinds: 'eventually-constant' (finite prefix then a fixed bit),
    'periodic' (finite prefix then a repeating cycle), and 'opaque'
    (an arbitrary deterministic rule).  Opaque rules are memoized;
    since rules must be deterministic the memoization is observationally
    invisible, and a racing recomputation is benign.
    """

    __slots__ = ("_prefix", "_tail", "_cycle", "_rule", "_memo")

    def __init__(self, prefix: Iterable[int] = EMPTY, *, tail: int | None = None,
                 cycle: Iterable[int] | None = None,
                 rule: Callable[[int], int] | None = None):
        given = sum(x is not None for x in (tail, cycle, rule))
        if given != 1:
            raise ValueError("exactly one of tail, cycle, rule must be given")
        self._prefix = word(prefix)
        self._tail = tail
        self._cycle = word(cycle) if cycle is not None else None
        if self._cycle is not None and not self._cycle:
            raise ValueError("cycle must be nonempty")
        if tail is not None and tail not in (0, 1):
            raise ValueError(f"tail bit must be 0 or 1, got {tail!r}")
        self._rule = rule
        self._memo: dict[int, int] | None = {} if rule is not None else None

    @staticmethod
    def eventually_constant(prefix: Iterable[int], tail: int) -> "Seq":
        return Seq(prefix, tail=tail)

    @staticmethod
    def periodic(prefix: Iterable[int], cycle: Iterable[int]) -> "Seq":
        return Seq(prefix, cycle=cycle)

    @staticmethod
    def from_rule(rule: Callable[[int], int], prefix: Iterable[int] = EMPTY) -> "Seq":
        return Seq(prefix, rule=rule)

    @property
    def kind(self) -> str:
        if self._tail is not None:
            return "eventually-constant"
        if self._cycle is not None:
            return "periodic"
        return "opaque"

    @property
    def prefix(self) -> Word:
        """The explicit bits held before this sequence's tail rule."""
        return self._prefix

    def at(self, i: int) -> int:
        if i < 0:
            raise OutOfRangeError(f"sequence index must be nonnegative, got {i}")
        if i < len(self._prefix):
            return self._prefix[i]
        j = i - len(self._prefix)
        if self._tail is not None:
            return self._tail
        if self._cycle is not None:
            return self._cycle[j % len(self._cycle)]
        memo = self._memo
        if j in memo:
            return memo[j]
        b = self._rule(j)
        if b != 0 and b != 1:
            raise ValueError(f"sequence rule returned {b!r} at index {i}")
        memo[j] = b
        return b

    def describe(self) -> str:
        head = format_word(self._prefix) if self._prefix else ""
        if self._tail is not None:
            return f"{head}~{self._tail}"
        if self._cycle is not None:
            return f"{head}~({format_word(self._cycle)})"
        return f"{head}~?"

    def __repr__(self) -> str:
        return f"Seq[{self.describe()}]"


ZERO = Seq.eventually_constant(EMPTY, 0)
ONE = Seq.eventually_constant(EMPTY, 1)

WordOrSeq = Union[Word, Seq]


def concat(u: Word, tail: WordOrSeq) -> WordOrSeq:
    """Prepend the word u; the result has the same kind as the tail."""
    if isinstance(tail, Seq):
        if not u:
            return tail
        if tail._tail is not None:
            return Seq(u + tail._prefix, tail=tail._tail)
        if tail._cycle is not None:
            return Seq(u + tail._prefix, cycle=tail._cycle)
        return Seq(u + tail._prefix, rule=tail._rule)
    return u + tail


def restrict(x: WordOrSeq, n: int) -> Word:
    """First n bits of x; for a finite word, n must not exceed its length."""
    if n < 0:
        raise OutOfRangeError(f"restriction length must be nonnegative, got {n}")
    if isinstance(x, Seq):
        head = x._prefix[:n]
        pad = n - len(head)
        if x._tail is not None:
            return head + (x._tail,) * pad
        if x._cycle is not None:
            return head + (x._cycle * (pad // len(x._cycle) + 1))[:pad]
        return tuple(x.at(i) for i in range(n))
    if n > len(x):
        raise OutOfRangeError(f"cannot restrict a word of length {len(x)} to {n}")
    return x[:n]


def lex_less(u: Word, v: Word) -> bool:
    """Strict order on words of equal length: equal up to the first 0-vs-1 split."""
    return len(u) == len(v) and u < v


def iter_level(n: int) -> Iterator[Word]:
    """All words of length n in lexicographic order, lazily, charged up front."""
    check_nonnegative(n, "level")
    meter().tick_exp(n, "level enumeration", n)
    return itertools.product((0, 1), repeat=n)


def level(n: int) -> list[Word]:
    return list(iter_level(n))


def is_all_zero(u: Word) -> bool:
    return len(u) > 0 and all(b == 0 for b in u)


def is_all_one(u: Word) -> bool:
    return len(u) > 0 and all(b == 1 for b in u)
