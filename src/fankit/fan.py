"""Bars with witnesses and the uniform-bound layer.

A Bar packages a carrier set with an optional witness that locates, for
any sequence, a prefix inside the carrier; witness answers are re-checked
on every call.  Fan oracles turn bars into uniform bounds; every returned
bound is verified against the bar's avoid tree before release,
so an oracle is never trusted blindly.
"""

from __future__ import annotations

from typing import Callable

from ._budget import one_meter
from ._record import FrozenRecord, _set
from .errors import (CertificateError, InconsistencyError, PreconditionError,
                     WitnessError)
from .sets import DSet, Outcome, avoid_height, closure, complement, uniform_bound
from .trees import PathGen, complete, find_path_convex_unique, has_descendant, survival
from .words import Seq, Word, format_word, restrict


class Bar(FrozenRecord):
    _fields = ("carrier", "wit")

    def __init__(self, carrier: DSet, wit: Callable[[Seq], int] | None = None):
        _set(self, "carrier", carrier)
        _set(self, "wit", wit)

    def query(self, alpha: Seq) -> int:
        """Call the witness and re-check its claim before trusting it."""
        if self.wit is None:
            raise PreconditionError("bar carries no witness")
        n = self.wit(alpha)
        if not self.carrier.member(restrict(alpha, n)):
            raise CertificateError(
                f"witness claimed level {n} but the prefix is outside the carrier")
        return n


def minimal_witness(carrier: DSet, scan_cap: int) -> Callable[[Seq], int]:
    """The least-prefix witness, found by scanning up to the cap."""
    def wit(alpha: Seq) -> int:
        for n in range(scan_cap + 1):
            if carrier.member(restrict(alpha, n)):
                return n
        raise WitnessError(f"no prefix entered the carrier within {scan_cap} steps")
    return wit


class FanOracle(FrozenRecord):
    _fields = ("raw_bound", "tag", "reverify")

    def __init__(self, raw_bound: Callable[[Bar], int], tag: str, reverify: bool = True):
        _set(self, "raw_bound", raw_bound)
        _set(self, "tag", tag)
        _set(self, "reverify", reverify)

    def bound(self, b: Bar) -> int:
        n = self.raw_bound(b)
        if self.reverify and avoid_height(b.carrier, n)[1] is not None:
            raise CertificateError(
                f"fan oracle [{self.tag}] returned {n}, which is not a uniform bound")
        return n


def fan_bruteforce(max_n: int) -> FanOracle:
    """A fan oracle backed by the avoid-tree descent; its search is
    its own verification, and minimality comes for free."""
    def raw(b: Bar) -> int:
        v = uniform_bound(b.carrier, max_n)
        if v.outcome is not Outcome.YES:
            raise PreconditionError(
                f"no uniform bound within {max_n}; the input may not be a uniform bar")
        return v.bound
    return FanOracle(raw, tag=f"brute-force(maxN={max_n})", reverify=False)


def fan_from_lpl(b: Bar, lpl: Callable[[DSet], PathGen]) -> int:
    """Uniform bound from a longest-path generator.

    The complement of an extension-closed bar is a tree with at most one
    path; the witness applied to its longest path yields a level that the
    whole tree misses.  The level is re-checked before being returned.
    """
    if b.wit is None:
        raise PreconditionError("bar must carry a witness")
    if not b.carrier.extension_closed:
        raise PreconditionError(
            "carrier must be flagged extension-closed; take its closure first")
    t = complement(b.carrier)
    gen = lpl(t)
    n = b.query(gen.as_seq())
    _, escape = avoid_height(b.carrier, n)
    if escape is not None:
        raise CertificateError(
            f"level {n} is not inside the carrier (saw {format_word(escape)}); "
            "the witness or the path generator violated its contract")
    return n


def wkl_unique_from_fan(t: DSet, fan: FanOracle,
                        bar_wit: Callable[[Word], Callable[[Seq], int]] | None = None) -> PathGen:
    """Path generator for a tree asserted infinite with at most one path,
    powered by a fan oracle.

    At each node the decidable side-death bar is formed (a word joins it
    when the left child loses that word or the right child loses its
    whole level), the oracle bounds it, and a survival scan at the bound
    decides the branch: a side dead at the bound cannot carry the tree.
    """

    def advance(u: Word, trace: list) -> int:
        right_ok = survival(t, u + (1,))

        def b_member(v: Word) -> bool:
            if not t.member(u + (0,) + v):
                return True
            return not right_ok(len(v))

        carrier = DSet(b_member, extension_closed=True)
        wit = bar_wit(u) if bar_wit is not None else None
        n = fan.bound(Bar(carrier, wit))
        trace.append(f"fan[{fan.tag}]@{format_word(u)}={n}")
        alive0 = has_descendant(t, u + (0,), n)
        alive1 = right_ok(n)
        trace.append(f"scan@{format_word(u)}:n={n}:{int(alive0)}{int(alive1)}")
        if not alive0 and not alive1:
            raise InconsistencyError(u, "both sides dead at the fan bound")
        if alive0 and alive1:
            raise CertificateError(
                f"fan bound {n} failed to separate the children at {format_word(u)}; "
                "the uniqueness assertion or the oracle is wrong")
        return 0 if alive0 else 1

    return PathGen(t, advance)


def coconvex_bound(b: Bar) -> int:
    """Uniform bound for a co-convex bar, with no oracle anywhere.

    The closure keeps co-convexity, its complement is a convex tree, and
    the probe-driven descent walks the completion's unique surviving ray.
    The witness applied to that ray gives the bound, re-verified by the
    closure's avoid tree.  Every scan of the call charges one meter.
    """
    if b.wit is None:
        raise PreconditionError("bar must carry a witness")
    if not b.carrier.co_convex:
        raise PreconditionError("carrier must be flagged co-convex")
    closed = closure(b.carrier)
    if closed.stab is None:
        raise PreconditionError(
            "carrier needs a stabilization depth (the completion requires one)")
    t = complement(closed)
    with one_meter():
        completed = complete(t)

        def exit_wit(alpha: Seq) -> int:
            # a probe u,b,c,c,... still in completed past the stab and its first tail
            # bit c stays in it: t's cones are frozen there, and the zero ray needs c = 0
            base = b.query(alpha)
            for m in range(base, max(base, len(alpha.prefix) + 1, closed.stab) + 1):
                if not completed.member(restrict(alpha, m)):
                    return m
            raise WitnessError("probe never left the completed tree")

        gen = find_path_convex_unique(completed, exit_wit)
        n = b.query(gen.as_seq())
        _, escape = avoid_height(closed, n)
    if escape is not None:
        raise CertificateError(
            f"level {n} is not inside the closed carrier (saw {format_word(escape)})")
    return n
