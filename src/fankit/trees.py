"""Trees over binary words: depth diagnostics, completion, and path generators.

A tree is a restriction-closed DSet.  Scans exploit that closure: searches
descend through members only, and a declared stabilization depth freezes
whole cones, so existence checks short-circuit instead of enumerating
full levels.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

from ._budget import check_depth, check_nonnegative, meter, one_meter
from .errors import CertificateError, InconsistencyError, PreconditionError, WitnessError
from .sets import (DEFAULT_HORIZON, DSet, Verdict, _value, descend, level_descent,
                   validate_claims)
from .words import EMPTY, Seq, Word, format_word, restrict


def tree(carrier: DSet, horizon: int = DEFAULT_HORIZON, validate: bool = True) -> DSet:
    """A tree: the DSet flagged restriction-closed, the flag (by default)
    validated up to the horizon."""
    if not carrier.restriction_closed:
        carrier = carrier.replace(restriction_closed=True)
    if validate:
        validate_claims(carrier, horizon)
    return carrier


def tree_levels(t: DSet, depth: int) -> list[list[Word]]:
    """Members of levels 0..depth, each in lex order, from one descent
    through members only, charged to the listing's meter.  A listing past
    the depth cap is refused before any level is built; each member is
    charged by its length, so the budget bounds the bits the listing holds."""
    check_depth(depth, "level listing")
    levels = [[] for _ in range(depth + 1)]
    with one_meter() as listing:
        limit = listing.limit
        for u in descend(t.member_fn, depth):
            k = len(u)
            used = listing.used = listing.used + k  # tick("level listing", k, k)
            if used > limit:
                listing.refuse("level listing", k, used)
            levels[k].append(u)
    return levels


def level_listing(t: DSet, depth: int) -> list[str]:
    """The WITNESS= values of complete-tree: for each level k of t's
    completion up to depth, "k:" and its members in lex order.

    Rendered straight from the completion's level masks when level_descent
    gives them and the listing fits the budget, else from tree_levels; the
    listing is charged what tree_levels charges either way.
    """
    c = complete(t)
    check_depth(depth, "level listing")
    m = meter()
    room = m.limit - m.used
    got = level_descent(c, depth, True, room)
    if got is not None:
        kept, visits = got
        charge = visits + sum(n * row.bit_count() for n, row in enumerate(kept))
        if charge <= room:
            m.tick("level listing", None, charge)
            kept += [0] * (depth + 1 - len(kept))
            return [f"{n}:{_render(row, n)}" for n, row in enumerate(kept)]
    return [f"{k}:{' '.join(map(format_word, level))}"
            for k, level in enumerate(tree_levels(c, depth))]


def _render(row: int, n: int) -> str:
    """The words of a level-n mask, in lex order, as format_word writes them."""
    if n == 0:
        return format_word(EMPTY) if row else ""
    form = f"0{n}b"
    return " ".join([format(v, form) for v, bit in enumerate(format(row, "b")[::-1])
                     if bit == "1"])


def members_at(t: DSet, n: int) -> list[Word]:
    """Members of level n, found by descending through members only."""
    return tree_levels(t, n)[n]


def is_infinite_to(t: DSet, depth: int) -> Verdict:
    """YES(depth) when every level up to depth has a member, else NO(k)
    with the least empty level k: how deep the root survives."""
    return survival_verdict(t, EMPTY, depth)


def _require_stab(t: DSet) -> int:
    if t.stab is None:
        raise PreconditionError("operation needs a declared stabilization depth on the tree")
    return t.stab


def _summit(t: DSet) -> Word | None:
    """The member a stabilized tree's completion hangs its zero tail on:
    the lex-greatest member of the deepest inhabited level, the root for
    the empty tree, and None when level stab is inhabited (the tree is
    infinite)."""
    s = _require_stab(t)
    top, head = -1, EMPTY
    for u in descend(t.member_fn, s):
        if len(u) == s:
            return None
        # preorder meets the words of one length in lex order
        if len(u) >= top:
            top, head = len(u), u
    return head


def is_summit(t: DSet, u: Word) -> bool:
    """Is u the member the completion hangs its zero tail on?

    For a finite nonempty tree that is the lex-greatest member of the
    deepest inhabited level; for the empty tree it is the root; an
    infinite tree has no summit.
    """
    head = _summit(t)
    return head is not None and u == head


def complete(t: DSet) -> DSet:
    """The least infinite extension: the tree itself when already infinite,
    otherwise the tree plus a zero ray hanging from its summit.

    The finite-case result carries no stabilization depth: the added ray
    makes membership sensitive to arbitrarily late bits.  Its thin shape
    keeps every downstream scan cheap regardless.
    """
    head = _summit(t)
    if head is None:
        return t
    hl, at = len(head), _value(head)
    tm = t.member_fn

    def mem(u: Word) -> bool:
        if not u:
            return True
        if len(u) > hl and u[:hl] == head and all(b == 0 for b in u[hl:]):
            return True
        return tm(u)

    def levels(depth: int) -> Iterator[int]:
        for n, row in enumerate(t.levels_fn(depth)):
            if n == 0:
                row |= 1  # the root
            if n >= hl:
                row |= 1 << (at << (n - hl))  # head followed by n - hl zeros
            yield row

    return DSet(mem, restriction_closed=True, convex=t.convex,
                levels_fn=None if t.levels_fn is None else levels)


def survival(t: DSet, u: Word,
             meet: Callable[[Word], None] | None = None) -> Callable[[int], bool]:
    """alive(d): does u have a member extension at relative depth d >= 0?

    Every answer comes from one suspended descent through members below
    u, resumed only as far as the deepest depth asked so far.  Up to its
    first word at relative depth d, that walk visits exactly the words a
    fresh walk cut at d visits, so asking every depth 0..K costs the
    visits of one has_descendant(t, u, K).  A member at or past the
    stabilization depth owns a full cone and answers every depth; an
    exhausted walk answers every depth past the deepest member it met.
    Each member that takes the walk deeper than before is handed to meet.
    An error from the walk ends it: ask a fresh survival after one.
    """
    s = t.stab
    walk = descend(t.member_fn, math.inf, root=u)
    top = -1  # deepest relative depth with a member found so far

    def alive(d: int) -> bool:
        nonlocal top
        check_nonnegative(d, "depth")
        while top < d:
            v = next(walk, None)
            if v is None:
                return False
            if s is not None and len(v) >= s:
                top = math.inf
            elif len(v) - len(u) > top:
                top = len(v) - len(u)
            else:
                continue
            if meet is not None:
                meet(v)
        return True

    return alive


def has_descendant(t: DSet, u: Word, depth: int) -> bool:
    """Does u have a member extension at relative depth `depth`?

    Pruned search: only members are expanded, and a member at or past the
    stabilization depth owns a full cone, so the answer is immediate.
    """
    return survival(t, u)(depth)


def survival_verdict(t: DSet, u: Word, depth: int) -> Verdict:
    """YES(depth) when u keeps descendants at every relative depth up to
    `depth`; NO(m) names the least depth with none.  YES is exact, not
    provisional, once the tree stabilizes within the checked depth."""
    alive = survival(t, u)
    if alive(depth):
        return Verdict.yes(bound=depth)
    # the walk is exhausted, so these questions visit nothing
    return Verdict.no(bound=next(m for m in range(depth + 1) if not alive(m)))


def survivor_width(t: DSet, k: int, depth: int) -> int:
    """How many level-k members still have a descendant at level `depth`."""
    if k > depth:
        raise PreconditionError(f"need k <= depth, got k={k}, depth={depth}")
    with one_meter():
        return sum(1 for u in members_at(t, k) if has_descendant(t, u, depth - k))


def escape_witness(t: DSet, scan_cap: int) -> Callable[[Seq], int]:
    """A witness locating, for each queried sequence, a prefix outside the
    tree; raises WitnessError when none shows up within the cap."""
    def wit(alpha: Seq) -> int:
        for n in range(scan_cap + 1):
            if not t.member(restrict(alpha, n)):
                return n
        raise WitnessError(f"no escape from the tree within {scan_cap} steps")
    return wit


class PathGen:
    """Single-consumer lazy path producer.

    Each next() call refuses a bit past the depth cap, asks the advance
    rule for one more bit and verifies the grown prefix is still a member
    of the tree.  The rule's scans, over all the bits, charge one meter:
    the run's the generator was made in, else one of its own.  All oracle
    and witness traffic is recorded in `trace` for replay.
    """

    def __init__(self, t: DSet, advance: Callable[[Word, list], int]):
        self._tree = t
        self._advance = advance
        self._meter = meter()
        self._bits: list[int] = []
        # the deepest member survives' walks have met, and its walk's root
        self._deepest, self._root = EMPTY, EMPTY
        self.trace: list[str] = []
        if not t.member(EMPTY):
            raise InconsistencyError(EMPTY, "tree has no root, cannot carry a path")

    def survives(self, v: Word, d: int) -> bool:
        """has_descendant(tree, v, d), with no walk when the deepest member
        this generator's walks have met extends v by d bits or more, and v
        its walk's root: that walk found every word from v down to it a
        member, the one d bits below v included."""
        deep = self._deepest
        if len(deep) - len(v) >= d and len(v) >= len(self._root) and deep[:len(v)] == v:
            return True

        def meet(w: Word) -> None:
            if len(w) > len(self._deepest):
                self._deepest, self._root = w, v
        return survival(self._tree, v, meet)(d)

    @property
    def prefix(self) -> Word:
        return tuple(self._bits)

    def next(self) -> int:
        check_depth(len(self._bits) + 1, "path")
        u = tuple(self._bits)
        with one_meter(self._meter):
            bit = self._advance(u, self.trace)
        if bit not in (0, 1):
            raise CertificateError(f"advance rule produced {bit!r}")
        self._bits.append(bit)
        if not self._tree.member(tuple(self._bits)):
            raise CertificateError(
                f"emitted prefix {format_word(tuple(self._bits))} left the tree")
        return bit

    def take(self, n: int) -> Word:
        check_nonnegative(n, "bits")
        while len(self._bits) < n:
            self.next()
        return tuple(self._bits[:n])

    def as_seq(self) -> Seq:
        def rule(i: int) -> int:
            self.take(i + 1)
            return self._bits[i]
        return Seq.from_rule(rule)


def find_path_convex_unique(t: DSet, wit: Callable[[Seq], int]) -> PathGen:
    """Path generator for a convex tree asserted infinite with at most one
    path, driven by a witness producing prefixes outside the tree.

    At each node the two probe sequences 0,1,1,... and 1,0,0,... are the
    lex extremes of the two subtrees; once a probe verifiably exits at
    level n, convexity forces at most one child to keep members at that
    level, and the generator descends into it.
    """
    if not t.convex:
        raise PreconditionError("tree must be flagged convex")

    def advance(u: Word, trace: list) -> int:
        probes = (Seq.eventually_constant(u + (0,), 1),
                  Seq.eventually_constant(u + (1,), 0))
        n = None
        for probe in probes:
            try:
                cand = wit(probe)
            except WitnessError:
                trace.append(f"wit({probe.describe()})=none")
                continue
            if t.member(restrict(probe, cand)):
                trace.append(f"wit({probe.describe()})={cand}:rejected")
                continue
            trace.append(f"wit({probe.describe()})={cand}")
            n = cand
            break
        if n is None:
            raise CertificateError(
                f"witness produced no verified exit at node {format_word(u)}")
        r = n - len(u)
        if r < 1:
            raise CertificateError(
                f"verified exit at {n} sits inside the current node {format_word(u)}; "
                "the carrier is not restriction-closed")
        alive0 = gen.survives(u + (0,), r - 1)
        alive1 = gen.survives(u + (1,), r - 1)
        trace.append(f"scan@{format_word(u)}:r={r}:{int(alive0)}{int(alive1)}")
        if alive0 and alive1:
            raise CertificateError(
                f"both children survive to the probe level at {format_word(u)}; "
                "convexity or uniqueness was misdeclared")
        if not alive0 and not alive1:
            raise InconsistencyError(u, "no child retains members at the probe level")
        return 0 if alive0 else 1

    gen = PathGen(t, advance)  # advance asks gen, which exists before its first call
    return gen
