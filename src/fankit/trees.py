"""Trees over binary words: depth diagnostics, completion, and path generators.

A tree is a restriction-closed DSet.  Scans exploit that closure: searches
descend through members only, and a declared stabilization depth freezes
whole cones, so existence checks short-circuit instead of enumerating
full levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from ._budget import MAX_SCAN_DEPTH
from .errors import (BudgetExceededError, CertificateError, FuelError,
                     InconsistencyError, PreconditionError, WitnessError)
from .sets import DEFAULT_HORIZON, DSet, Verdict, descend, descent_height, validate_claims
from .words import EMPTY, Seq, Word, format_word, restrict

DEFAULT_FUEL = 64


@dataclass(frozen=True)
class Tree:
    carrier: DSet
    horizon: int = DEFAULT_HORIZON

    def member(self, u: Word) -> bool:
        return self.carrier.member(u)

    @property
    def stab(self) -> int | None:
        return self.carrier.stab

    @property
    def convex(self) -> bool:
        return self.carrier.convex


def tree(carrier: DSet, horizon: int = DEFAULT_HORIZON, validate: bool = True) -> Tree:
    """Wrap a DSet as a tree, flagging and (by default) validating
    restriction closure up to the horizon."""
    if not carrier.restriction_closed:
        carrier = replace(carrier, restriction_closed=True)
    if validate:
        validate_claims(carrier, horizon)
    return Tree(carrier, horizon)


def tree_levels(t: Tree, depth: int) -> list[list[Word]]:
    """Members of levels 0..depth, each in lex order, from one descent
    through members only.

    A listing deeper than MAX_SCAN_DEPTH is refused before any level is
    built, like a descent that would need words that long.
    """
    if depth > MAX_SCAN_DEPTH:
        raise BudgetExceededError(
            f"listing levels 0..{depth} needs words longer than {MAX_SCAN_DEPTH} bits")
    levels: list[list[Word]] = [[]]
    for u in descend(t.member, depth):
        if len(u) == len(levels):
            levels.append([])
        levels[len(u)].append(u)
    levels.extend([] for _ in range(depth + 1 - len(levels)))
    return levels


def members_at(t: Tree, n: int) -> list[Word]:
    """Members of level n, found by descending through members only."""
    return tree_levels(t, n)[n]


def is_infinite_to(t: Tree, depth: int) -> Verdict:
    """YES(depth) when every level up to depth has a member, else NO(k)
    with the least empty level k."""
    top, _ = descent_height(t.member, depth)
    if top == depth:
        return Verdict.yes(bound=depth)
    return Verdict.no(bound=top + 1)


def _require_stab(t: Tree) -> int:
    if t.stab is None:
        raise PreconditionError("operation needs a declared stabilization depth on the tree")
    return t.stab


def _summit(t: Tree) -> Word | None:
    """The member a stabilized tree's completion hangs its zero tail on:
    the lex-greatest member of the deepest inhabited level, the root for
    the empty tree, and None when level stab is inhabited (the tree is
    infinite)."""
    s = _require_stab(t)
    top, head = -1, EMPTY
    for u in descend(t.member, s):
        if len(u) == s:
            return None
        # preorder meets the words of one length in lex order
        if len(u) >= top:
            top, head = len(u), u
    return head


def is_summit(t: Tree, u: Word) -> bool:
    """Is u the member the completion hangs its zero tail on?

    For a finite nonempty tree that is the lex-greatest member of the
    deepest inhabited level; for the empty tree it is the root; an
    infinite tree has no summit.
    """
    head = _summit(t)
    return head is not None and u == head


def complete(t: Tree) -> Tree:
    """The least infinite extension: the tree itself when already infinite,
    otherwise the tree plus a zero ray hanging from its summit.

    The finite-case result carries no stabilization depth: the added ray
    makes membership sensitive to arbitrarily late bits.  Its thin shape
    keeps every downstream scan cheap regardless.
    """
    head = _summit(t)
    if head is None:
        return t
    hl = len(head)
    base = t.carrier

    def mem(u: Word) -> bool:
        if not u:
            return True
        if len(u) > hl and u[:hl] == head and all(b == 0 for b in u[hl:]):
            return True
        return base.member(u)

    carrier = DSet(mem, restriction_closed=True, convex=base.convex)
    return Tree(carrier, t.horizon)


def survival(t: Tree, u: Word) -> Callable[[int], bool]:
    """alive(d): does u have a member extension at relative depth d >= 0?

    Every answer comes from one suspended descent through members below
    u, resumed only as far as the deepest depth asked so far.  Up to its
    first word at relative depth d, that walk visits exactly the words a
    fresh walk cut at d visits, so asking every depth 0..K costs the
    visits of one has_descendant(t, u, K), all charged to the walk's one
    ScanMeter.  A member at or past the stabilization depth owns a full
    cone and answers every depth; an exhausted walk answers every depth
    past the deepest member it met.  An error from the walk ends it: ask
    a fresh survival after one.
    """
    s = t.stab
    walk = descend(t.member, len(u) + MAX_SCAN_DEPTH + 1, root=u)
    top = -1  # deepest relative depth with a member found so far

    def alive(d: int) -> bool:
        nonlocal top
        while top < d:
            v = next(walk, None)
            if v is None:
                return False
            if s is not None and len(v) >= s:
                top = math.inf
            else:
                top = max(top, len(v) - len(u))
        return True

    return alive


def has_descendant(t: Tree, u: Word, depth: int) -> bool:
    """Does u have a member extension at relative depth `depth`?

    Pruned search: only members are expanded, and a member at or past the
    stabilization depth owns a full cone, so the answer is immediate.
    """
    return survival(t, u)(depth)


def survival_verdict(t: Tree, u: Word, depth: int) -> Verdict:
    """YES(depth) when u keeps descendants at every relative depth up to
    `depth`; NO(m) names the least depth with none.  YES is exact, not
    provisional, once the tree stabilizes within the checked depth."""
    alive = survival(t, u)
    if alive(depth):
        return Verdict.yes(bound=depth)
    # the walk is exhausted, so these questions visit nothing
    return Verdict.no(bound=next(m for m in range(depth + 1) if not alive(m)))


def survivor_width(t: Tree, k: int, depth: int) -> int:
    """How many level-k members still have a descendant at level `depth`."""
    if k > depth:
        raise PreconditionError(f"need k <= depth, got k={k}, depth={depth}")
    return sum(1 for u in members_at(t, k) if has_descendant(t, u, depth - k))


def escape_witness(t: Tree, scan_cap: int) -> Callable[[Seq], int]:
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

    Each next() call asks the advance rule for one more bit and, by
    default, verifies the grown prefix is still a member of the tree.
    All oracle and witness traffic is recorded in `trace` for replay.
    """

    def __init__(self, t: Tree, advance: Callable[[Word, list], int],
                 fuel: int = DEFAULT_FUEL, check: bool = True):
        self._tree = t
        self._advance = advance
        self._bits: list[int] = []
        self._fuel = fuel
        self._check = check
        self.trace: list[str] = []
        if check and not t.member(EMPTY):
            raise InconsistencyError(EMPTY, "tree has no root, cannot carry a path")

    @property
    def prefix(self) -> Word:
        return tuple(self._bits)

    def next(self) -> int:
        if len(self._bits) >= self._fuel:
            raise FuelError(f"path generator exhausted its fuel of {self._fuel} bits")
        u = tuple(self._bits)
        bit = self._advance(u, self.trace)
        if bit not in (0, 1):
            raise CertificateError(f"advance rule produced {bit!r}")
        self._bits.append(bit)
        if self._check and not self._tree.member(tuple(self._bits)):
            raise CertificateError(
                f"emitted prefix {format_word(tuple(self._bits))} left the tree")
        return bit

    def take(self, n: int) -> Word:
        while len(self._bits) < n:
            self.next()
        return tuple(self._bits[:n])

    def as_seq(self) -> Seq:
        def rule(i: int) -> int:
            self.take(i + 1)
            return self._bits[i]
        return Seq.from_rule(rule)


def find_path_convex_unique(t: Tree, wit: Callable[[Seq], int],
                            fuel: int = DEFAULT_FUEL) -> PathGen:
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
        alive0 = has_descendant(t, u + (0,), r - 1)
        alive1 = has_descendant(t, u + (1,), r - 1)
        trace.append(f"scan@{format_word(u)}:r={r}:{int(alive0)}{int(alive1)}")
        if alive0 and alive1:
            raise CertificateError(
                f"both children survive to the probe level at {format_word(u)}; "
                "convexity or uniqueness was misdeclared")
        if not alive0 and not alive1:
            raise InconsistencyError(u, "no child retains members at the probe level")
        return 0 if alive0 else 1

    return PathGen(t, advance, fuel=fuel)
