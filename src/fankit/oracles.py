"""Omniscience principles as oracle interfaces, and reductions between them.

LLPO and WKL are not computable; here they are first-class oracle values.
The bundled instantiations are bounded searches that give exact answers on
inputs stabilizing within their horizon, and every answer is logged into
the consuming path generator's trace for replay.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

from ._budget import check_nonnegative, meter
from ._record import FrozenRecord, _set
from .errors import CertificateError, PreconditionError
from .sets import DSet
from .trees import PathGen, complete, survival
from .words import Seq, Word, format_word


class Parity(Enum):
    """Which arithmetic progression of indices is promised all-zero."""
    EVENS = "evens-zero"
    ODDS = "odds-zero"


class LLPOOracle(FrozenRecord):
    _fields = ("decide", "tag")

    def __init__(self, decide: Callable[[Seq], Parity], tag: str):
        _set(self, "decide", decide)
        _set(self, "tag", tag)


class WKLOracle(FrozenRecord):
    _fields = ("solve", "tag")

    def __init__(self, solve: Callable[[DSet], PathGen], tag: str):
        _set(self, "solve", solve)
        _set(self, "tag", tag)


def _single_one(alpha: Seq, horizon: int) -> int | None:
    """The index of the 1 among alpha's indices 0..horizon, None when there
    is none; a second 1 breaks every LLPO instance's precondition.  The
    horizon + 1 indices are charged before any is read."""
    check_nonnegative(horizon, "horizon")
    meter().tick(f"LLPO search to horizon {horizon}", n=horizon + 1)
    hit = None
    for i in range(horizon + 1):
        if alpha.at(i) == 1:
            if hit is not None:
                raise PreconditionError(
                    f"sequence has two ones, at indices {hit} and {i}")
            hit = i
    return hit


def llpo_bounded(alpha: Seq, horizon: int) -> Parity:
    """Bounded-search split for a sequence with at most one 1.

    Scans indices 0..horizon.  A 1 at an odd index settles EVENS, at an
    even index ODDS; when nothing shows up the fixed preference is EVENS.
    Exact whenever the sequence's single 1 (if any) sits in the scan.
    """
    hit = _single_one(alpha, horizon)
    if hit is None or hit % 2 == 1:
        return Parity.EVENS
    return Parity.ODDS


def llpo_bounded_oracle(horizon: int) -> LLPOOracle:
    """The bounded-search oracle: each answer scans indices 0..horizon."""
    return LLPOOracle(lambda alpha: llpo_bounded(alpha, horizon),
                      tag=f"bounded(h={horizon})")


def wkl_from_llpo(t: DSet, oracle: LLPOOracle) -> PathGen:
    """Path generator: at each node, encode the two children's survival
    depths into a sequence with at most one 1 and let the oracle pick
    the branch.  EVENS descends left, ODDS right."""

    def advance(u: Word, trace: list) -> int:
        alive = (survival(t, u + (0,)), survival(t, u + (1,)))

        def beta(i: int) -> int:
            return 0 if alive[i % 2](i // 2) else 1

        def alpha_rule(i: int) -> int:
            if beta(i) != 1:
                return 0
            return 1 if all(beta(j) == 0 for j in range(i)) else 0

        answer = oracle.decide(Seq.from_rule(alpha_rule))
        trace.append(f"llpo[{oracle.tag}]@{len(u)}={answer.name}")
        return 0 if answer is Parity.EVENS else 1

    return PathGen(t, advance)


def wkl_oracle_from_llpo(oracle: LLPOOracle) -> WKLOracle:
    return WKLOracle(lambda t: wkl_from_llpo(t, oracle),
                     tag=f"wkl-from-llpo[{oracle.tag}]")


def lpl_from_wkl(t: DSet, oracle: WKLOracle) -> PathGen:
    """Longest-path generator: complete the tree, then take the oracle's
    path of the completion.  Every emitted prefix restricts into the
    original tree at each of its inhabited lengths."""
    return oracle.solve(complete(t))


def llpo_probe_tree(alpha: Seq) -> DSet:
    """The thin convex tree whose left arm lives while the even positions
    of alpha stay zero and whose right arm lives while the odd ones do.

    Left arm: 0 then all ones; right arm: 1 then all zeros.  At every
    level the two candidate words are lexicographic neighbours, so the
    tree is convex, and with at most one 1 in alpha it is infinite.
    """
    def mem(u: Word) -> bool:
        if len(u) <= 1:
            return True
        head, tail = u[0], u[1:]
        if head == 0:
            return all(b == 1 for b in tail) and \
                all(alpha.at(2 * i) == 0 for i in range(len(tail) + 1))
        return all(b == 0 for b in tail) and \
            all(alpha.at(2 * i + 1) == 0 for i in range(len(tail) + 1))

    return DSet(mem, restriction_closed=True, convex=True)


def llpo_from_path_oracle(alpha: Seq, path_oracle: Callable[[DSet], PathGen],
                          horizon: int) -> Parity:
    """Answer the even/odd split by routing a path oracle through the
    probe tree: a path through the left arm certifies the even positions
    zero, through the right arm the odd ones."""
    _single_one(alpha, horizon)  # refuses two ones within the horizon
    probe = llpo_probe_tree(alpha)
    gen = path_oracle(probe)
    w = gen.take(2)
    for k in range(1, len(w) + 1):
        if not probe.member(w[:k]):
            raise CertificateError(
                f"path oracle produced {format_word(w[:k])}, not in the probe tree")
    return Parity.EVENS if w[0] == 0 else Parity.ODDS
