"""Independent reference oracles for the test suite.

Everything here enumerates quantifiers directly over plain membership
functions, with none of the library's pruning or stabilization
shortcuts, so library answers are checked against a separate route.
"""

from __future__ import annotations

import itertools
from typing import Callable

Member = Callable[[tuple], bool]


def all_words(depth: int):
    for n in range(depth + 1):
        yield from itertools.product((0, 1), repeat=n)


def words_at(n: int):
    return itertools.product((0, 1), repeat=n)


def has_prefix_in(member: Member, u: tuple) -> bool:
    return any(member(u[:k]) for k in range(len(u) + 1))


def brute_least_uniform_bound(member: Member, max_n: int) -> int | None:
    for n in range(max_n + 1):
        if all(has_prefix_in(member, u) for u in words_at(n)):
            return n
    return None


def brute_first_escape(member: Member, n: int) -> tuple | None:
    """Lex-first level-n word with no prefix in the set."""
    return next((u for u in words_at(n) if not has_prefix_in(member, u)), None)


def brute_least_escape(member: Member, depth: int) -> tuple | None:
    """Shortlex-first word of length <= depth outside the set."""
    return next((u for u in all_words(depth) if not member(u)), None)


def brute_interior_member(member: Member, stab: int, u: tuple, slack: int = 2) -> bool:
    """All extensions inside the set, enumerated to just past the
    stabilization depth."""
    horizon = max(stab + slack - len(u), 0)
    return all(member(u + w) for w in all_words(horizon))


def brute_level_members(member: Member, n: int) -> list[tuple]:
    return [u for u in words_at(n) if member(u)]


def brute_survivors(member: Member, k: int, d: int) -> set[tuple]:
    """Level-k members with at least one level-d descendant, by full scan."""
    out = set()
    for u in words_at(k):
        if member(u) and any(member(u + w) for w in words_at(d - k)):
            out.add(u)
    return out


def brute_has_descendant(member: Member, u: tuple, d: int) -> bool:
    """Some extension of u by d bits is a member (u itself when d = 0)."""
    return any(member(u + w) for w in words_at(d))


def brute_llpo_branch(member: Member, u: tuple, horizon: int) -> int:
    """The child of u a path led by the bounded LLPO oracle must take.

    Index i of the oracle's sequence asks whether child i % 2 still has a
    member i // 2 bits below it.  The first index whose answer is no
    names the child that died first, and the path takes the other one;
    with no such index up to the horizon it takes child 0.
    """
    for i in range(horizon + 1):
        if not brute_has_descendant(member, u + (i % 2,), i // 2):
            return 1 - i % 2
    return 0


def brute_descent_words(keep: Member, depth: int) -> list[tuple]:
    """The words a pruned descent cut at depth tests, in its order: those
    of length <= depth whose proper prefixes all satisfy keep, in preorder
    with 0 before 1, which is the order Python sorts tuples in."""
    return sorted(u for u in all_words(depth) if all(keep(u[:k]) for k in range(len(u))))


def brute_descent_charges(keep: Member, depth: int, stop_at_depth: bool = False,
                          listing: bool = False) -> list[tuple]:
    """The charges, in order, of a pruned descent cut at depth, each as
    (operation, level, words): one word for each word it tests, then,
    with listing, the length of each word it keeps.  With stop_at_depth
    the walk ends at its first kept word of length depth."""
    charges = []
    for u in brute_descent_words(keep, depth):
        charges.append(("descent", len(u), 1))
        if keep(u):
            if listing:
                charges.append(("level listing", len(u), len(u)))
            if stop_at_depth and len(u) == depth:
                break
    return charges


def brute_metered(charges: list[tuple], budget: int) -> tuple[int, str | None]:
    """The words used when the charges run against the budget, and the
    refusal of the first charge that passes it (None when none does)."""
    used = 0
    for operation, level, words in charges:
        used += words
        if used > budget:
            return used, f"{operation} at level {level}: {used} words used, budget {budget}"
    return used, None


def brute_is_convex_level(member: Member, n: int) -> bool:
    flags = [member(u) for u in words_at(n)]
    idx = [i for i, f in enumerate(flags) if f]
    if not idx:
        return True
    return all(flags[i] for i in range(idx[0], idx[-1] + 1))


def brute_is_convex(member: Member, depth: int) -> bool:
    return all(brute_is_convex_level(member, n) for n in range(depth + 1))


def brute_convexity_gap(member: Member, depth: int) -> tuple | None:
    """At the first level up to depth whose members are not one block in
    lex order: its first member, the first non-member after that, and its
    last member.  None when every level is one block."""
    for n in range(depth + 1):
        inside = brute_level_members(member, n)
        holes = [u for u in words_at(n) if inside and inside[0] < u < inside[-1]
                 and not member(u)]
        if holes:
            return inside[0], holes[0], inside[-1]
    return None


def brute_tree_infinite_to(member: Member, depth: int) -> bool:
    return all(any(member(u) for u in words_at(n)) for n in range(depth + 1))


def brute_least_empty_level(member: Member, depth: int) -> int | None:
    return next((n for n in range(depth + 1)
                 if not any(member(u) for u in words_at(n))), None)


def brute_summit(member: Member, s: int) -> tuple | None:
    """Lex-greatest member of the deepest inhabited level of a tree that
    stabilizes at s; the root for the empty tree; None when level s is
    inhabited."""
    if any(member(u) for u in words_at(s)):
        return None
    inhabited = [n for n in range(s) if any(member(u) for u in words_at(n))]
    if not inhabited:
        return ()
    return max(u for u in words_at(inhabited[-1]) if member(u))


def brute_completion(member: Member, s: int) -> Member:
    """Membership of the least infinite extension: the tree itself, or the
    tree plus the root and a zero ray hung from its summit."""
    head = brute_summit(member, s)
    if head is None:
        return member
    k = len(head)
    return lambda u: (member(u) or u == ()
                      or (u[:k] == head and not any(u[k:])))


def brute_longest_path_prefix_ok(member: Member, prefix: tuple, depth: int) -> bool:
    """Does the prefix restrict into the tree at every inhabited length?"""
    for n in range(min(len(prefix), depth) + 1):
        if any(member(u) for u in words_at(n)) and not member(prefix[:n]):
            return False
    return True


def brute_tree_eval(f, u: tuple) -> int:
    """Value of a decision tree (nodes with index/low/high, leaves with
    value) on u padded with zeros."""
    while hasattr(f, "index"):
        f = f.high if f.index < len(u) and u[f.index] else f.low
    return f.value


def brute_query_depth(f) -> int:
    """1 + the largest index of a decision tree's nodes, by recursion over
    every path; 0 for a leaf."""
    if not hasattr(f, "index"):
        return 0
    return max(f.index + 1, brute_query_depth(f.low), brute_query_depth(f.high))


def brute_largest_leaf(f) -> int:
    """The largest leaf value of a decision tree, by recursion over every path."""
    if not hasattr(f, "index"):
        return f.value
    return max(brute_largest_leaf(f.low), brute_largest_leaf(f.high))


def brute_uc_bound(eval_word: Callable[[tuple], int], depth: int) -> int:
    """Least N with the padded evaluation constant on each level-N cylinder,
    checking all continuations out to the given depth."""
    for n in range(depth + 1):
        ok = True
        for u in words_at(n):
            values = {eval_word(u + w) for w in all_words(depth - n)}
            if len(values) != 1:
                ok = False
                break
        if ok:
            return n
    return depth


def brute_claim_violation(member: Member, claims: dict, horizon: int) -> str | None:
    """The message the first false claim must raise, or None when every
    claim holds on all words up to the horizon.

    `claims` maps DSet field names (stab, extension_closed,
    restriction_closed, convex, co_convex) to their declared values.
    Claims are checked in that order, each over its words level by level
    in lex order, asking membership afresh every time.
    """
    def fmt(u: tuple) -> str:
        return "".join(map(str, u)) or "e"

    stab = claims.get("stab")
    if stab is not None:
        if stab < 0:
            return f"stab must be nonnegative, got {stab}"
        for n in range(stab, horizon):
            for u in words_at(n):
                for b in (0, 1):
                    if member(u + (b,)) != member(u):
                        return f"stab={stab} violated at {fmt(u)} -> {fmt(u + (b,))}"
    if claims.get("extension_closed"):
        for u in all_words(horizon - 1):
            if member(u) and not (member(u + (0,)) and member(u + (1,))):
                return f"extension-closed flag violated above {fmt(u)}"
    if claims.get("restriction_closed"):
        for u in all_words(horizon):
            if u and member(u) and not member(u[:-1]):
                return f"restriction-closed flag violated below {fmt(u)}"
    for key, name, inside in (("convex", "convex", member),
                              ("co_convex", "co-convex", lambda u: not member(u))):
        if claims.get(key):
            for n in range(horizon + 1):
                if not brute_is_convex_level(inside, n):
                    return f"{name} flag violated at level {n}"
    return None
