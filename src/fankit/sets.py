"""Decidable sets of binary words.

A DSet is a total membership function plus optional structural metadata:
a stabilization depth (membership is extension-invariant past it) and
flags for extension/restriction closure and convexity, and, for the
sets the constructors here build, a level evaluator that gives whole
levels as bit masks.  Flags are validated eagerly to a construction
horizon and trusted beyond it; lies beyond the horizon surface later as
certificate-check failures.
"""

from __future__ import annotations

from enum import Enum
from operator import and_, or_, xor
from typing import Callable, Iterable, Iterator

from ._budget import check_depth, check_nonnegative, meter, one_meter
from ._record import FrozenRecord, _set
from .errors import PreconditionError
from .words import _DIGITS, EMPTY, Seq, Word, format_word

DEFAULT_HORIZON = 8

MemberFn = Callable[[Word], bool]
# levels_fn(depth) yields the bit masks of levels 0..depth, one at a time
LevelsFn = Callable[[int], Iterator[int]]


class DSet(FrozenRecord):
    _fields = ("member_fn", "stab", "extension_closed", "restriction_closed",
               "convex", "co_convex", "levels_fn")

    def __init__(self, member_fn: MemberFn, stab: int | None = None,
                 extension_closed: bool = False, restriction_closed: bool = False,
                 convex: bool = False, co_convex: bool = False,
                 levels_fn: LevelsFn | None = None):
        _set(self, "member_fn", member_fn)
        _set(self, "stab", stab)
        _set(self, "extension_closed", extension_closed)
        _set(self, "restriction_closed", restriction_closed)
        _set(self, "convex", convex)
        _set(self, "co_convex", co_convex)
        _set(self, "levels_fn", levels_fn)

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


# ---------------------------------------------------------------------------
# Whole levels as bit masks.  Level n of a set is one int of 2^n bits: bit v
# is the word whose bits, first bit most significant, spell v, so lex order
# is index order and the children of bit v are bits 2v and 2v + 1.

def _ones(n: int) -> int:
    """The full level n."""
    return (1 << (1 << n)) - 1


def _lowest(m: int) -> int:
    """The index of the lowest set bit of m > 0: the lex-first word."""
    return (m & -m).bit_length() - 1


def _word(v: int, n: int) -> Word:
    """The length-n word at bit v."""
    return tuple((v >> (n - 1 - k)) & 1 for k in range(n))


def _value(u: Word) -> int:
    """The bit of the word u in its level."""
    v = 0
    for b in u:
        v = 2 * v + b
    return v


# translate tables: a byte's low (high) four bits, each doubled
_DOUBLED = bytes(sum((x >> k & 1) * (3 << 2 * k) for k in range(4)) for x in range(16))
_DOUBLE_LOW = _DOUBLED * 16
_DOUBLE_HIGH = bytes(_DOUBLED[b >> 4] for b in range(256))


def _spread(m: int, n: int) -> int:
    """Level n's mask carried down to level n + 1: each word's bit copied
    to both its children."""
    data = m.to_bytes(max(1, 1 << n >> 3), "little")
    out = bytearray(2 * len(data))
    out[0::2] = data.translate(_DOUBLE_LOW)
    out[1::2] = data.translate(_DOUBLE_HIGH)
    return int.from_bytes(out, "little")


def level_rows(ds: DSet, depth: int, start: int = 0) -> list[int]:
    """The masks of ds's levels start..depth; the caller charges them first.

    A set with a level evaluator builds each level with a few big-int
    operations.  Any other set is asked each word of those levels once, in
    preorder (the order of a descent, so a closure tests its base once per
    word; from start = depth, lex order).
    """
    if ds.levels_fn is not None:
        return list(ds.levels_fn(depth))[start:]
    rows = [bytearray(1 << n) for n in range(start, depth + 1)]
    stack = [(EMPTY, 0)]
    while stack:
        u, v = stack.pop()
        n = len(u)
        if n >= start:
            rows[n - start][v] = ds.member(u)
        if n < depth:
            stack.append((u + (1,), 2 * v + 1))
            stack.append((u + (0,), 2 * v))
    return [int(row[::-1].translate(_DIGITS), 2) for row in rows]


def _combine(op: Callable[[int, int], int], a: DSet, b: DSet) -> LevelsFn | None:
    """The level evaluator of op on the levels of a and b; None unless
    both have one."""
    if a.levels_fn is None or b.levels_fn is None:
        return None

    def levels(depth: int) -> Iterator[int]:
        for x, y in zip(a.levels_fn(depth), b.levels_fn(depth)):
            yield op(x, y)
    return levels


def validate_claims(ds: DSet, horizon: int = DEFAULT_HORIZON,
                    tables: dict | None = None) -> None:
    """Spot-check declared stab and flags on all words up to the horizon.

    The levels 0..horizon come from level_rows, as masks, and the claims
    are checked against them a level at a time; a word is formatted only
    for the message of a failed check.  A caller that passes `tables`
    keeps each table there by membership function and horizon, so a claim
    added later to the same membership is checked without building again.
    """
    key = (ds.member_fn, horizon)
    rows = None if tables is None else tables.get(key)
    check_nonnegative(horizon, "horizon")
    if ds.stab is not None:
        check_nonnegative(ds.stab, "stab")
    if not (ds.stab is not None or ds.extension_closed or ds.restriction_closed
            or ds.convex or ds.co_convex):
        return
    if rows is None:
        m, operation = meter(), f"claim validation to horizon {horizon}"
        for n in range(horizon + 1):
            m.tick_exp(n, operation, n)
        rows = level_rows(ds, horizon)
        if tables is not None:
            tables[key] = rows
    # kids[n]: each word of level n copied to its two children, which a
    # stab claim wants level n + 1 to equal
    kids = [_spread(rows[n], n) for n in range(horizon)]
    if ds.stab is not None:
        for n in range(min(ds.stab, horizon), horizon):
            bad = rows[n + 1] ^ kids[n]
            if bad:
                c = _lowest(bad)
                u = _word(c >> 1, n)
                raise PreconditionError(
                    f"stab={ds.stab} violated at {format_word(u)} -> {format_word(u + (c & 1,))}")
    if ds.extension_closed:
        for n in range(horizon):
            bad = kids[n] & ~rows[n + 1]
            if bad:
                u = _word(_lowest(bad) >> 1, n)
                raise PreconditionError(f"extension-closed flag violated above {format_word(u)}")
    if ds.restriction_closed:
        for n in range(horizon):
            bad = rows[n + 1] & ~kids[n]
            if bad:
                u = _word(_lowest(bad), n + 1)
                raise PreconditionError(f"restriction-closed flag violated below {format_word(u)}")
    for flag, name, want in ((ds.convex, "convex", 1), (ds.co_convex, "co-convex", 0)):
        if flag:
            for n in range(horizon + 1):
                if _gap(rows[n], n, want) is not None:
                    raise PreconditionError(f"{name} flag violated at level {n}")


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

def _each_level(level: Callable[[int], int]) -> LevelsFn:
    """The level evaluator that builds each level n as level(n)."""
    return lambda depth: map(level, range(depth + 1))


def full_set() -> DSet:
    return DSet(lambda u: True, stab=0, extension_closed=True,
                restriction_closed=True, convex=True, levels_fn=_each_level(_ones))


def empty_set() -> DSet:
    return DSet(lambda u: False, stab=0, extension_closed=True,
                restriction_closed=True, co_convex=True, levels_fn=_each_level(lambda n: 0))


def len_ge(k: int) -> DSet:
    """Words of length at least k."""
    return DSet(lambda u: len(u) >= k, stab=k, extension_closed=True, co_convex=True,
                levels_fn=_each_level(lambda n: _ones(n) if n >= k else 0))


def bit_at(i: int, b: int) -> DSet:
    """Words long enough to fix position i, with that bit equal to b."""
    if b not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {b!r}")

    def level(n: int) -> int:
        # runs of 2^(n-1-i) words, b's run the upper one, repeated 2^i times
        run = n - 1 - i
        return (_ones(run) << (b << run)) * (_ones(n) // _ones(run + 1)) if run >= 0 else 0
    return DSet(lambda u: len(u) > i and u[i] == b, stab=i + 1, extension_closed=True,
                levels_fn=_each_level(level))


def count_ones_ge(k: int) -> DSet:
    """Words carrying at least k one bits.  Not stabilized for k > 0."""
    if k <= 0:
        return full_set()

    def levels(depth: int) -> Iterator[int]:
        ge = [1]  # ge[j]: the level's words with at least j ones, j <= min(k, n)
        for n in range(depth + 1):
            if n:
                # a word of level n is a first bit followed by a level n - 1 word
                half = 1 << (n - 1)
                ge = [_ones(n)] + [(ge[j] if j < len(ge) else 0) | ge[j - 1] << half
                                   for j in range(1, min(k, n) + 1)]
            yield ge[k] if k < len(ge) else 0
    return DSet(lambda u: sum(u) >= k, extension_closed=True, levels_fn=levels)


def has_prefix(w: Word) -> DSet:
    """Words extending the fixed word w."""
    w = tuple(w)
    k, at = len(w), _value(w)
    return DSet(lambda u: len(u) >= k and u[:k] == w, stab=k, extension_closed=True,
                levels_fn=_each_level(lambda n: _ones(n - k) << (at << (n - k)) if n >= k else 0))


def finite_set(members: Iterable[Word]) -> DSet:
    """A literal finite set; stabilizes just past its longest member."""
    table = frozenset(tuple(m) for m in members)
    stab = max((len(m) for m in table), default=-1) + 1
    return DSet(lambda u: u in table, stab=stab,
                levels_fn=_each_level(lambda n: sum(1 << _value(m) for m in table if len(m) == n)))


# The combinators call their operands' member_fn, not DSet.member: one
# Python frame per level of a nested set, and a truth value, not a bool.

def union_sets(a: DSet, b: DSet) -> DSet:
    stab = max(a.stab, b.stab) if a.stab is not None and b.stab is not None else None
    am, bm = a.member_fn, b.member_fn
    return DSet(lambda u: am(u) or bm(u), stab=stab,
                extension_closed=a.extension_closed and b.extension_closed,
                restriction_closed=a.restriction_closed and b.restriction_closed,
                co_convex=a.co_convex and b.co_convex, levels_fn=_combine(or_, a, b))


def intersect_sets(a: DSet, b: DSet) -> DSet:
    stab = max(a.stab, b.stab) if a.stab is not None and b.stab is not None else None
    am, bm = a.member_fn, b.member_fn
    return DSet(lambda u: am(u) and bm(u), stab=stab,
                extension_closed=a.extension_closed and b.extension_closed,
                restriction_closed=a.restriction_closed and b.restriction_closed,
                convex=a.convex and b.convex, levels_fn=_combine(and_, a, b))


def complement(a: DSet) -> DSet:
    am = a.member_fn
    return DSet(lambda u: not am(u), stab=a.stab,
                extension_closed=a.restriction_closed,
                restriction_closed=a.extension_closed,
                convex=a.co_convex, co_convex=a.convex,
                levels_fn=_combine(xor, a, full_set()))


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
    A level is a's level and the children of the level above.
    """
    am = a.member_fn
    last: Word | None = None
    hit = 0  # length of the shortest prefix of last in a; len(last) + 1 if none

    def mem(u: Word) -> bool:
        nonlocal last, hit
        if last is None:
            shared = -1
        elif u[:len(last)] == last:  # a descent's step down: u extends last
            shared = len(last)
        else:
            shared = _common_prefix_len(u, last)
        if hit <= shared:
            return True
        j = shared + 1
        while j <= len(u) and not am(u[:j]):
            j += 1
        last, hit = u, j
        return j <= len(u)

    def levels(depth: int) -> Iterator[int]:
        above = 0
        for n, row in enumerate(a.levels_fn(depth)):
            above = row | (_spread(above, n - 1) if n else 0)
            yield above

    return DSet(mem, stab=a.stab, extension_closed=True, co_convex=a.co_convex,
                levels_fn=None if a.levels_fn is None else levels)


def _common_prefix_len(u: Word, w: Word) -> int:
    k = min(len(u), len(w)) - 1
    if k >= 0 and u[:k] == w[:k] and u[k] != w[k]:
        return k  # a descent's step across: u is the 1-sibling of a prefix of w
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
    m = meter()
    limit = m.limit
    deepest = len(root) - 1  # the longest word expanded so far
    stack = [root]
    pop, push = stack.pop, stack.append
    while stack:
        u = pop()
        k = len(u)
        # Meter.tick("descent", k), written out: this is the per-word cost
        # of every scan
        used = m.used = m.used + 1
        if used > limit:
            m.refuse("descent", k, used)
        if not keep(u):
            continue
        yield u
        if k < depth:
            if k > deepest:
                check_depth(k + 1 - len(root), "descent")
                deepest = k
            push(u + (1,))
            push(u + (0,))


def descent_height(keep: MemberFn, depth: int) -> tuple[int, Word | None]:
    """Height of the kept tree cut at depth (-1 when the root fails), and
    its lex-first word at level depth; the walk stops at that word."""
    top = -1
    for u in descend(keep, depth):
        k = len(u)
        if k == depth:
            return depth, u
        if k > top:
            top = k
    return top, None


# A level is built as a mask only while it is at most this many times wider
# than the words the descent visits there, and only down to the last level
# here (2^26 bits, 8 MB), whatever the budget.
_MASK_WIDTH = 64
_MASK_LEVELS = 26


def level_descent(ds: DSet, depth: int, members: bool,
                  room: int) -> tuple[list[int], int] | None:
    """The descent through ds's members (members=False: its non-members)
    cut at depth, done a whole level at a time: the masks of the words it
    keeps at levels 0..h, h its height, and the number of words it visits.

    Level n keeps the children of level n - 1's kept words that are (or
    are not) in ds.  The descent visits the root, then at each level n the
    2 * popcount of level n - 1's kept words.  None, so that the caller
    descends word by word instead, when ds has no level evaluator, when a
    level would be a mask more than _MASK_WIDTH times wider than the words
    visited there, or, once the visits pass room, more than 2 * room bits
    wide: a descent past room is refused after room + 1 words, and masks
    that wide would cost more than those words.  Nothing is charged.
    """
    check_nonnegative(depth, "depth")
    if ds.levels_fn is None:
        return None
    rows = ds.levels_fn(depth)
    if not members:
        rows = (~row for row in rows)
    level, kept, visits = next(rows) & 1, [], 1
    for n in range(1, depth + 1):
        if not level:
            break
        kept.append(level)
        seen = 2 * level.bit_count()
        visits += seen
        if n > _MASK_LEVELS or 1 << n > _MASK_WIDTH * seen or \
                visits > room and 1 << n > 2 * room:
            return None
        level = _spread(level, n - 1) & next(rows)
    if level:
        kept.append(level)
    return kept, visits


def avoid_descent(b: DSet, depth: int) -> tuple[int, Word | None]:
    """descent_height of b's avoid tree: the words with no prefix in b."""
    member = b.member_fn
    return descent_height(lambda u: not member(u), depth)


def avoid_height(b: DSet, depth: int) -> tuple[int, Word | None]:
    """avoid_descent's answer, from level masks where level_descent gives
    them, and charged or refused as avoid_descent is either way.

    The avoid tree is restriction-closed, so N is a uniform bound exactly
    when it has no level-N word, and the least bound is its height + 1.
    The level-depth word, when there is one, is the lex-first escape, and
    the descent stops there.  A descent that does not fit the budget is
    refused at its level of the first word past the budget, found from the
    masks too, without the word-by-word walk up to it.
    """
    check_nonnegative(depth, "depth")
    m = meter()
    room = max(m.limit - m.used, 0)
    got = level_descent(b, depth, False, room)
    if got is None:
        return avoid_descent(b, depth)
    kept, visits = got
    top, escape = len(kept) - 1, None
    if top == depth:
        x = _lowest(kept[depth])
        escape, visits = _word(x, depth), _rank(kept, depth, depth, x)
    if visits > room:
        m.tick("descent", _preorder_level(kept, depth, room + 1), room + 1)
    m.tick("descent", None, visits)
    return top, escape


def _rank(kept: list[int], depth: int, n: int, y: int) -> int:
    """The place, from 1, of the level-n word at bit y in the preorder of
    the words a descent cut at depth visits, `kept` the masks of the words
    it keeps.  At each level m the descent visits the children of level
    m - 1's kept words; those up to the word's prefix (m <= n), or before
    its first level-m descendant (m > n), come before it."""
    place = 1  # the root
    for m in range(1, min(len(kept), depth) + 1):
        b = (y >> (n - m)) + 1 if m <= n else y << (m - n)
        row = kept[m - 1]
        # the visited words below bit b: both children of each kept word
        # below bit b // 2, and word b - 1 when it is a 0-child of a kept one
        place += 2 * (row & ((1 << (b >> 1)) - 1)).bit_count() + (row >> (b >> 1) & b & 1)
    return place


def _preorder_level(kept: list[int], depth: int, r: int) -> int:
    """The level of the r-th word, from 1, that a descent cut at depth
    visits, `kept` the masks of the words it keeps; r is at most the
    number of words it visits."""
    n = y = 0
    while _rank(kept, depth, n, y) < r:
        # the r-th word is below this one: under its 1-child when that
        # child's place is not past r, else under its 0-child
        n, y = n + 1, 2 * y
        if _rank(kept, depth, n, y + 1) <= r:
            y += 1
    return n


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


def _gap(row: int, n: int, want: int) -> tuple[int, int, int] | None:
    """Bits (i, j, k), i < j < k, of the level-n mask: the first and last
    equal to want, and the first between them that is not; None when the
    want bits form one contiguous block."""
    if not want:
        row ^= _ones(n)
    if not row:
        return None
    first = _lowest(row)
    run = row >> first
    if not run & (run + 1):
        return None
    return first, first + _lowest(~run & (run + 1)), first + run.bit_length() - 1


def convexity_verdict(a: DSet, depth: int, mode: str = "convex") -> Verdict:
    """Per-level betweenness check to the given depth.

    Convexity only relates words of equal length, so each level is
    checked independently, and charged just before to the call's one
    meter; YES(depth) means consistent so far.
    """
    if mode not in ("convex", "co-convex"):
        raise PreconditionError(f"mode must be 'convex' or 'co-convex', got {mode!r}")
    check_nonnegative(depth, "depth")
    want = 1 if mode == "convex" else 0
    with one_meter() as levels:
        for n in range(depth + 1):
            levels.tick_exp(n, "level enumeration", n)
            gap = _gap(level_rows(a, n, n)[0], n, want)
            if gap is not None:
                return Verdict.no(witness=tuple(_word(v, n) for v in gap))
    return Verdict.yes(bound=depth)
