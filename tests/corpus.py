"""Seeded random corpora shared by the unit and acceptance suites.

Every generator takes an explicit random.Random, so runs are
reproducible.  Stabilized objects are represented by a truth table over
the words up to the stabilization depth: membership of a longer word is
the membership of its table-depth prefix, which makes the declared
stabilization exact by construction.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable

from fankit import Bar, DSet, Seq, Leaf, Node, restrict, tree
from fankit.errors import WitnessError


def table_member(table: dict, s: int) -> Callable[[tuple], bool]:
    def member(u: tuple) -> bool:
        return table[u] if len(u) < s else table[u[:s]]
    return member


def random_dset(rng: random.Random, s: int, density: float = 0.5) -> DSet:
    table = {}
    for n in range(s + 1):
        for u in itertools.product((0, 1), repeat=n):
            table[u] = rng.random() < density
    return DSet(table_member(table, s), stab=s)


def _tree_table(rng: random.Random, s: int, keep: float,
                forced_ray: tuple | None) -> dict:
    table = {(): True}
    for n in range(s):
        for u in itertools.product((0, 1), repeat=n):
            for b in (0, 1):
                child = u + (b,)
                alive = table[u] and rng.random() < keep
                if forced_ray is not None and child == forced_ray[:n + 1]:
                    alive = True
                table[child] = alive
    return table


def random_tree(rng: random.Random, s: int, ensure_infinite: bool = False,
                keep: float = 0.7) -> DSet:
    ray = tuple(rng.randrange(2) for _ in range(s)) if ensure_infinite else None
    table = _tree_table(rng, s, keep, ray)
    carrier = DSet(table_member(table, s), stab=s, restriction_closed=True)
    return tree(carrier, validate=False)


def random_finite_tree(rng: random.Random, s: int, keep: float = 0.55) -> DSet:
    table = _tree_table(rng, s, keep, None)
    for u in itertools.product((0, 1), repeat=s):
        table[u] = False
    carrier = DSet(table_member(table, s), stab=s, restriction_closed=True)
    return tree(carrier, validate=False)


def random_convex_tree(rng: random.Random, s: int, ensure_infinite: bool = False,
                       die: float = 0.15) -> DSet:
    """Members at each level form a lexicographic interval, so the tree is
    convex at every level, cones included."""
    table = {(): True}
    interval: list[tuple] = [()]
    dead = False
    for n in range(s):
        children = [u + (b,) for u in interval for b in (0, 1)]
        for c in children:
            table[c] = False
        if not dead and (not ensure_infinite) and rng.random() < die:
            dead = True
        if dead or not children:
            interval = []
            continue
        lo = rng.randrange(len(children))
        hi = rng.randrange(lo, len(children))
        if ensure_infinite and n == s - 1 and hi < lo:
            hi = lo
        interval = children[lo:hi + 1]
        for c in interval:
            table[c] = True
    full = {}
    for m in range(s + 1):
        for u in itertools.product((0, 1), repeat=m):
            full[u] = table.get(u, False)
    carrier = DSet(table_member(full, s), stab=s,
                   restriction_closed=True, convex=True)
    return tree(carrier, validate=False)


def minimal_bar_witness(carrier: DSet, cap: int) -> Callable[[Seq], int]:
    def wit(alpha: Seq) -> int:
        for n in range(cap + 1):
            if carrier.member(restrict(alpha, n)):
                return n
        raise WitnessError(f"no prefix in the carrier within {cap} bits")
    return wit


def random_ext_closed_bar(rng: random.Random, s: int, keep: float = 0.5) -> Bar:
    """Complement of a random tree killed at its stabilization depth:
    extension-closed, stabilized, and a genuine bar with bound <= s."""
    table = _tree_table(rng, s, keep, None)
    for u in itertools.product((0, 1), repeat=s):
        table[u] = False
    member = table_member(table, s)
    carrier = DSet(lambda u: not member(u), stab=s, extension_closed=True)
    return Bar(carrier, minimal_bar_witness(carrier, s + 2))


def random_coconvex_bar(rng: random.Random, s: int) -> Bar:
    """Complement of a convex tree killed at the stabilization depth."""
    t = random_convex_tree(rng, s)

    def member(u: tuple) -> bool:
        return not (t.member(u) and len(u) < s)

    carrier = DSet(member, stab=s, extension_closed=True, co_convex=True)
    return Bar(carrier, minimal_bar_witness(carrier, s + 2))


def random_stabilized_bar(rng: random.Random, s: int, density: float = 0.3) -> Bar:
    """Arbitrary-shape stabilized bar: random table, then every level-s
    word lacking a member prefix is patched in."""
    table = {}
    for n in range(s + 1):
        for u in itertools.product((0, 1), repeat=n):
            table[u] = rng.random() < density
    for u in itertools.product((0, 1), repeat=s):
        if not any(table[u[:k]] for k in range(s + 1)):
            table[u] = True
    carrier = DSet(table_member(table, s), stab=s)
    return Bar(carrier, minimal_bar_witness(carrier, s + 2))


def random_functional(rng: random.Random, max_index: int = 5,
                      leaf_values: int = 5, branch: float = 0.65):
    def go(depth: int):
        if depth > max_index or rng.random() > branch:
            return Leaf(rng.randrange(leaf_values))
        idx = rng.randrange(max_index + 1)
        return Node(idx, go(depth + 1), go(depth + 1))
    f = go(0)
    if isinstance(f, Leaf) and rng.random() < 0.8:
        idx = rng.randrange(max_index + 1)
        f = Node(idx, Leaf(rng.randrange(leaf_values)), Leaf(rng.randrange(leaf_values)))
    return f


def random_bar_interior_set(rng: random.Random, s: int,
                            density: float = 0.85) -> DSet:
    """Stabilized set whose interior is a bar: the whole level at the
    stabilization depth is inside, so cones past it are all members."""
    table = {}
    for n in range(s):
        for u in itertools.product((0, 1), repeat=n):
            table[u] = rng.random() < density
    for u in itertools.product((0, 1), repeat=s):
        table[u] = True
    if rng.random() < 0.25:
        for key in table:
            table[key] = True
    return DSet(table_member(table, s), stab=s)
