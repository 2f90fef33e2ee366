"""Decidable sets of binary words.

A DSet is a total membership function plus optional structural metadata:
a stabilization depth (membership is extension-invariant past it) and
flags for extension/restriction closure and convexity.  Flags are
validated eagerly to a construction horizon and trusted beyond it;
lies beyond the horizon surface later as certificate-check failures.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Iterator

from ._budget import check_depth, check_nonnegative, meter
from ._record import FrozenRecord, _set
from .errors import PreconditionError
from .words import EMPTY, Seq, Word, format_word, iter_level

DEFAULT_HORIZON = 8

MemberFn = Callable[[Word], bool]


class DSet(FrozenRecord):
    _fields = ("member_fn", "stab", "extension_closed", "restriction_closed",
               "convex", "co_convex")

    def __init__(self, member_fn: MemberFn, stab: int | None = None,
                 extension_closed: bool = False, restriction_closed: bool = False,
                 convex: bool = False, co_convex: bool = False):
        _set(self, "member_fn", member_fn)
        _set(self, "stab", stab)
        _set(self, "extension_closed", extension_closed)
        _set(self, "restriction_closed", restriction_closed)
        _set(self, "convex", convex)
        _set(self, "co_convex", co_convex)

    def member(self, u: Word) -> bool:
        return bool(self.member_fn(u))

    def __contains__(self, u: Word) -> bool:
        return self.member(u)

    def __repr__(self) -> str:
        flags = [name for name in ("extension_closed", "restriction_closed", "convex", "co_convex")
                 if getattr(self, name)]
        meta = (f" stab={self.stab}" if self.stab is not None else "") + \
               ("".join(" " + f for f in flags))
        return f"DSet[{meta.strip() or 'plain'}]"


def validate_claims(ds: DSet, horizon: int = DEFAULT_HORIZON,
                    tables: dict | None = None) -> None:
    """Spot-check declared stab and flags on all words up to the horizon.

    Each word's membership is asked once, in preorder (the order of a
    descent, so a closure tests its base once per word), into a byte table
    in level order: the length-n word with bit value v sits at 2^n - 1 + v,
    its children at 2i + 1 and 2i + 2, its parent at (i - 1) // 2.  The
    claims are then checked against the table; a word is formatted only
    for the message of a failed check.  A caller that passes `tables`
    keeps each table there by membership function and horizon, so a claim
    added later to the same membership is checked without asking again.
    """
    key = (ds.member_fn, horizon)
    inside = None if tables is None else tables.get(key)
    check_nonnegative(horizon, "horizon")
    if ds.stab is not None:
        check_nonnegative(ds.stab, "stab")
    if not (ds.stab is not None or ds.extension_closed or ds.restriction_closed
            or ds.convex or ds.co_convex):
        return
    if inside is None:
        m, operation = meter(), f"claim validation to horizon {horizon}"
        for n in range(horizon + 1):
            m.tick_exp(n, operation, n)
        inside = bytearray((2 << horizon) - 1)
        stack = [(EMPTY, 0)]
        while stack:
            u, i = stack.pop()
            inside[i] = ds.member(u)
            if len(u) < horizon:
                stack.append((u + (1,), 2 * i + 2))
                stack.append((u + (0,), 2 * i + 1))
        if tables is not None:
            tables[key] = inside
    parents = (1 << horizon) - 1  # positions 0..parents-1 have their children in the table
    if ds.stab is not None:
        for i in range((1 << min(ds.stab, horizon)) - 1, parents):
            for b in (0, 1):
                if inside[2 * i + 1 + b] != inside[i]:
                    u = _word_at(i)
                    raise PreconditionError(
                        f"stab={ds.stab} violated at {format_word(u)} -> {format_word(u + (b,))}")
    if ds.extension_closed:
        for i in range(parents):
            if inside[i] and not (inside[2 * i + 1] and inside[2 * i + 2]):
                raise PreconditionError(
                    f"extension-closed flag violated above {format_word(_word_at(i))}")
    if ds.restriction_closed:
        for i in range(1, len(inside)):
            if inside[i] and not inside[(i - 1) // 2]:
                raise PreconditionError(
                    f"restriction-closed flag violated below {format_word(_word_at(i))}")
    for flag, name, want in ((ds.convex, "convex", 1), (ds.co_convex, "co-convex", 0)):
        if flag:
            for n in range(horizon + 1):
                if _gap(inside[(1 << n) - 1:(2 << n) - 1], want) is not None:
                    raise PreconditionError(f"{name} flag violated at level {n}")


def _word_at(i: int) -> Word:
    """The word at position i of validate_claims' level-order table."""
    n = (i + 1).bit_length() - 1
    v = i + 1 - (1 << n)
    return tuple((v >> (n - 1 - k)) & 1 for k in range(n))


def _index_of(u: Word) -> int:
    """The position of the word u in validate_claims' level-order table:
    walk down from the root, bit b leading to child 2i + 1 + b."""
    i = 0
    for b in u:
        i = 2 * i + 1 + b
    return i


def dset(member_fn: MemberFn, *, stab: int | None = None,
         extension_closed: bool = False, restriction_closed: bool = False,
         convex: bool = False, co_convex: bool = False,
         horizon: int = DEFAULT_HORIZON, validate: bool = True) -> DSet:
    """Public constructor: builds a DSet and validates its claims eagerly."""
    ds = DSet(member_fn, stab=stab, extension_closed=extension_closed,
              restriction_closed=restriction_closed, convex=convex, co_convex=co_convex)
    if validate:
        validate_claims(ds, horizon)
    return ds


# ---------------------------------------------------------------------------
# Common stabilized families.

def full_set() -> DSet:
    return DSet(lambda u: True, stab=0, extension_closed=True,
                restriction_closed=True, convex=True)


def empty_set() -> DSet:
    return DSet(lambda u: False, stab=0, extension_closed=True,
                restriction_closed=True, co_convex=True)


def len_ge(k: int) -> DSet:
    """Words of length at least k."""
    return DSet(lambda u: len(u) >= k, stab=k, extension_closed=True, co_convex=True)


def bit_at(i: int, b: int) -> DSet:
    """Words long enough to fix position i, with that bit equal to b."""
    if b not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {b!r}")
    return DSet(lambda u: len(u) > i and u[i] == b, stab=i + 1, extension_closed=True)


def count_ones_ge(k: int) -> DSet:
    """Words carrying at least k one bits.  Not stabilized for k > 0."""
    if k <= 0:
        return full_set()
    return DSet(lambda u: sum(u) >= k, extension_closed=True)


def has_prefix(w: Word) -> DSet:
    """Words extending the fixed word w."""
    w = tuple(w)
    return DSet(lambda u: len(u) >= len(w) and u[:len(w)] == w,
                stab=len(w), extension_closed=True)


def finite_set(members: Iterable[Word]) -> DSet:
    """A literal finite set; stabilizes just past its longest member."""
    table = frozenset(tuple(m) for m in members)
    stab = max((len(m) for m in table), default=-1) + 1
    return DSet(lambda u: u in table, stab=stab)


def union_sets(a: DSet, b: DSet) -> DSet:
    stab = max(a.stab, b.stab) if a.stab is not None and b.stab is not None else None
    return DSet(lambda u: a.member(u) or b.member(u), stab=stab,
                extension_closed=a.extension_closed and b.extension_closed,
                restriction_closed=a.restriction_closed and b.restriction_closed,
                co_convex=a.co_convex and b.co_convex)


def intersect_sets(a: DSet, b: DSet) -> DSet:
    stab = max(a.stab, b.stab) if a.stab is not None and b.stab is not None else None
    return DSet(lambda u: a.member(u) and b.member(u), stab=stab,
                extension_closed=a.extension_closed and b.extension_closed,
                restriction_closed=a.restriction_closed and b.restriction_closed,
                convex=a.convex and b.convex)


def complement(a: DSet) -> DSet:
    return DSet(lambda u: not a.member(u), stab=a.stab,
                extension_closed=a.restriction_closed,
                restriction_closed=a.extension_closed,
                convex=a.co_convex, co_convex=a.convex)


# ---------------------------------------------------------------------------
# The prefix-closure, relative set, and interior operators.

def closure(a: DSet) -> DSet:
    """Words having some prefix in a.  Extension-closed by construction;
    co-convexity survives the closure.

    Membership remembers the answers along the last word asked about: the
    length of its shortest prefix in a, or that none of its prefixes is.
    A query tests only the prefixes it does not share with that word, so a
    descent, which asks about a parent before its children, pays one test
    of a per word instead of one per prefix, and nothing else is kept.
    """
    last: Word | None = None
    hit = 0  # length of the shortest prefix of last in a; len(last) + 1 if none

    def mem(u: Word) -> bool:
        nonlocal last, hit
        shared = -1 if last is None else _common_prefix_len(u, last)
        if hit <= shared:
            return True
        j = shared + 1
        while j <= len(u) and not a.member(u[:j]):
            j += 1
        last, hit = u, j
        return j <= len(u)

    return DSet(mem, stab=a.stab, extension_closed=True, co_convex=a.co_convex)


def _common_prefix_len(u: Word, w: Word) -> int:
    if u[:len(w)] == w:  # a descent's usual step: u extends w
        return len(w)
    n = 0
    for x, y in zip(u, w):
        if x != y:
            break
        n += 1
    return n


def restrict_set(a: DSet, u: Word) -> DSet:
    """The relative set seen below u: w is a member iff u*w is in a."""
    u = tuple(u)
    stab = max(0, a.stab - len(u)) if a.stab is not None else None
    return DSet(lambda w: a.member(u + w), stab=stab,
                extension_closed=a.extension_closed,
                restriction_closed=a.restriction_closed,
                convex=a.convex, co_convex=a.co_convex)


def interior(a: DSet) -> DSet:
    """Words all of whose extensions stay inside a.

    Decidable only with a declared stabilization depth: the recursion
    u in A* iff u in A and both children in A* bottoms out there.  Each
    word the memo learns is charged once, to the meter the set was made
    under, so the memo never holds more words than the budget.
    """
    if a.stab is None:
        raise PreconditionError("interior needs a declared stabilization depth")
    s = a.stab
    memo: dict[Word, bool] = {}
    tick, operation = meter().tick, f"interior to stab {s}"

    def mem(u: Word) -> bool:
        if len(u) >= s:
            return a.member(u)
        got = memo.get(u)
        if got is None:
            tick(operation, len(u))
            got = a.member(u) and mem(u + (0,)) and mem(u + (1,))
            memo[u] = got
        return got

    return DSet(mem, stab=s, extension_closed=True)


# ---------------------------------------------------------------------------
# Verdicts.

class Outcome(Enum):
    YES = "YES"
    NO = "NO"
    UNKNOWN = "UNKNOWN"


class Verdict(FrozenRecord):
    """Three-valued answer with an independently checkable payload.

    YES and NO carry a bound/witness/escape; UNKNOWN carries the depth
    exhausted.  Which payload field is meaningful depends on the query.
    """
    _fields = ("outcome", "bound", "witness", "escape", "depth")

    def __init__(self, outcome: Outcome, bound: int | None = None,
                 witness: tuple | None = None, escape: Seq | None = None,
                 depth: int | None = None):
        _set(self, "outcome", outcome)
        _set(self, "bound", bound)
        _set(self, "witness", witness)
        _set(self, "escape", escape)
        _set(self, "depth", depth)

    @staticmethod
    def yes(bound: int | None = None, witness: tuple | None = None) -> "Verdict":
        return Verdict(Outcome.YES, bound=bound, witness=witness)

    @staticmethod
    def no(bound: int | None = None, witness: tuple | None = None,
           escape: Seq | None = None) -> "Verdict":
        return Verdict(Outcome.NO, bound=bound, witness=witness, escape=escape)

    @staticmethod
    def unknown(depth: int) -> "Verdict":
        return Verdict(Outcome.UNKNOWN, depth=depth)

    @property
    def is_yes(self) -> bool:
        return self.outcome is Outcome.YES

    @property
    def is_no(self) -> bool:
        return self.outcome is Outcome.NO

    @property
    def is_unknown(self) -> bool:
        return self.outcome is Outcome.UNKNOWN


# ---------------------------------------------------------------------------
# The pruned descent, and the bar checks built on it.

def descend(keep: MemberFn, depth: int, root: Word = EMPTY) -> Iterator[Word]:
    """Preorder walk, 0 before 1, over the words of length <= depth that
    extend root and whose prefixes from root on (the word itself
    included) all satisfy keep.

    Only kept words are expanded, and every keep test is charged to the
    meter, so the budget counts words visited: a thin tree costs its
    width, a full level n about 2^(n+1).  A walk that would go past the
    depth cap below root fails like one over budget, when it gets there.
    Words of one length come out in lexicographic order; a caller that
    has its answer stops the walk by leaving the loop.
    """
    check_nonnegative(depth, "depth")
    tick = meter().tick
    deepest = len(root) - 1  # the longest word expanded so far
    stack = [root]
    while stack:
        u = stack.pop()
        k = len(u)
        tick("descent", k)
        if not keep(u):
            continue
        yield u
        if k < depth:
            if k > deepest:
                check_depth(k + 1 - len(root), "descent")
                deepest = k
            stack.append(u + (1,))
            stack.append(u + (0,))


def descent_height(keep: MemberFn, depth: int) -> tuple[int, Word | None]:
    """Height of the kept tree cut at depth (-1 when the root fails), and
    its lex-first word at level depth; the walk stops at that word."""
    top = -1
    for u in descend(keep, depth):
        if len(u) == depth:
            return depth, u
        if len(u) > top:
            top = len(u)
    return top, None


def avoid_height(b: DSet, depth: int) -> tuple[int, Word | None]:
    """descent_height of b's avoid tree: the words with no prefix in b.

    The avoid tree is restriction-closed, so N is a uniform bound exactly
    when it has no level-N word, and the least bound is its height + 1.
    The level-depth word, when there is one, is the lex-first escape.
    """
    return descent_height(lambda u: not b.member(u), depth)


def least_uniform_bound(b: DSet, max_n: int) -> int | None:
    """Least N <= max_n such that every level-N word has a prefix in b."""
    top, escape = avoid_height(b, max_n)
    return None if escape is not None else top + 1


def bar_verdict(b: DSet, depth: int) -> Verdict:
    """Is b met by every sequence within the given depth?

    YES(N): least N <= depth with every level-N word prefixed in b.
    NO(escape): only certifiable when b stabilizes by depth; the escape
    is the lex-first level-stab word with no prefix in b, extended by
    zeros.  UNKNOWN(depth) otherwise.
    """
    top, escape = avoid_height(b, depth)
    if escape is None:
        return Verdict.yes(bound=top + 1)
    s = b.stab
    if s is not None and s <= depth:
        # past stab every extension of an avoider avoids b too, so the
        # lex-first level-depth avoider is the lex-first level-s one
        # followed by zeros
        return Verdict.no(escape=Seq.eventually_constant(escape[:s], 0))
    return Verdict.unknown(depth)


def uniform_bound(b: DSet, max_n: int) -> Verdict:
    """Least uniform bar bound, or UNKNOWN past max_n."""
    n = least_uniform_bound(b, max_n)
    if n is not None:
        return Verdict.yes(bound=n)
    return Verdict.unknown(max_n)


def uniform_bound_ext_closed(b: DSet, max_n: int) -> Verdict:
    """For extension-closed b the uniform bound is the first full level,
    which is what uniform_bound finds."""
    if not b.extension_closed:
        raise PreconditionError("set must be flagged extension-closed")
    return uniform_bound(b, max_n)


def _gap(row: bytes, want: int) -> tuple[int, int, int] | None:
    """Positions (i, j, k), i < j < k, of the first and last bytes of the
    membership row equal to want and of the first byte between them that
    is not; None when the want bytes form one contiguous block."""
    first, last = row.find(want), row.rfind(want)
    j = row.find(1 - want, first + 1, last) if first >= 0 else -1
    return None if j < 0 else (first, j, last)


def convexity_verdict(a: DSet, depth: int, mode: str = "convex") -> Verdict:
    """Per-level betweenness check to the given depth.

    Convexity only relates words of equal length, so each level is
    checked independently; YES(depth) means consistent so far.
    """
    if mode not in ("convex", "co-convex"):
        raise PreconditionError(f"mode must be 'convex' or 'co-convex', got {mode!r}")
    check_nonnegative(depth, "depth")
    want = 1 if mode == "convex" else 0
    for n in range(depth + 1):
        gap = _gap(bytes(map(a.member, iter_level(n))), want)
        if gap is not None:
            return Verdict.no(witness=tuple(_word_at((1 << n) - 1 + i) for i in gap))
    return Verdict.yes(bound=depth)
