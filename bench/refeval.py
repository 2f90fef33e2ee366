"""Brute-force reference evaluator for the definition-file constructors the
benchmark generates.

Expressions are plain tuples, e.g. ("union", ("len_ge", 3), ("bit", 0, 1)),
and words are bit strings ("" is the empty word).  Every answer here comes
from enumerating words directly, in the style of tests/bruteforce.py; this
module never imports fankit, so it is an independent route to each verdict.

The declared stabilization depths follow the documented constructor rules
(README "Definition files"), because NO versus UNKNOWN in `bar-check`
depends on the declared depth, not on the true one.
"""

from __future__ import annotations

import itertools


def words_at(n: int):
    """All words of length n, in lexicographic order."""
    return ("".join(bits) for bits in itertools.product("01", repeat=n))


def fmt(u: str) -> str:
    return u if u else "e"


# ---------------------------------------------------------------------------
# Rendering and evaluation of set, tree and bar expressions.

def render(e) -> str:
    head = e[0]
    if head in ("len_ge", "count_ones_ge", "const", "first_one_plus", "leaf"):
        return f"{head}({e[1]})"
    if head == "bit":
        return f"bit({e[1]},{e[2]})"
    if head == "prefix":
        return f"prefix({fmt(e[1])})"
    if head == "finite":
        return "finite(" + ", ".join(fmt(w) for w in e[1]) + ")"
    if head in ("union", "intersect", "bar"):
        return f"{head}({render(e[1])}, {render(e[2])})"
    if head in ("complement", "closure", "coconvex", "tree"):
        return f"{head}({render(e[1])})"
    if head == "stab":
        return f"stab({render(e[1])}, {e[2]})"
    if head == "node":
        return f"node({e[1]}, {render(e[2])}, {render(e[3])})"
    raise ValueError(f"unknown constructor {head!r}")


def member(e, u: str) -> bool:
    head = e[0]
    if head == "len_ge":
        return len(u) >= e[1]
    if head == "bit":
        return len(u) > e[1] and u[e[1]] == str(e[2])
    if head == "count_ones_ge":
        return u.count("1") >= e[1]
    if head == "prefix":
        return u.startswith(e[1])
    if head == "finite":
        return u in e[1]
    if head == "union":
        return member(e[1], u) or member(e[2], u)
    if head == "intersect":
        return member(e[1], u) and member(e[2], u)
    if head == "complement":
        return not member(e[1], u)
    if head == "closure":
        return any(member(e[1], u[:k]) for k in range(len(u) + 1))
    if head in ("stab", "coconvex", "tree", "bar"):
        return member(e[1], u)
    raise ValueError(f"{head!r} is not a set expression")


def declared_stab(e) -> int | None:
    head = e[0]
    if head == "len_ge":
        return e[1]
    if head == "bit":
        return e[1] + 1
    if head == "count_ones_ge":
        return 0 if e[1] <= 0 else None
    if head == "prefix":
        return len(e[1])
    if head == "finite":
        return max((len(w) for w in e[1]), default=-1) + 1
    if head in ("union", "intersect"):
        a, b = declared_stab(e[1]), declared_stab(e[2])
        return None if a is None or b is None else max(a, b)
    if head in ("complement", "closure", "coconvex", "tree", "bar"):
        return declared_stab(e[1])
    if head == "stab":
        return e[2]
    raise ValueError(f"{head!r} is not a set expression")


def has_prefix_in(e, u: str) -> bool:
    return any(member(e, u[:k]) for k in range(len(u) + 1))


def least_uniform_bound(e, max_n: int) -> int | None:
    """Least N <= max_n with every level-N word prefixed in the set."""
    for n in range(max_n + 1):
        if all(has_prefix_in(e, u) for u in words_at(n)):
            return n
    return None


# ---------------------------------------------------------------------------
# Expected (exit code, verdict, payload lines) per subcommand.

def expect_uniform_bound(e, max_n: int):
    n = least_uniform_bound(e, max_n)
    if n is not None:
        return 0, "YES", (f"BOUND={n}",)
    return 2, "UNKNOWN", (f"BOUND={max_n}",)


def expect_bar_check(e, depth: int):
    n = least_uniform_bound(e, depth)
    if n is not None:
        return 0, "YES", (f"BOUND={n}",)
    s = declared_stab(e)
    if s is not None and s <= depth:
        u = next(u for u in words_at(s) if not has_prefix_in(e, u))
        return 1, "NO", (f"ESCAPE={fmt((u + '0' * depth)[:depth])}",)
    return 2, "UNKNOWN", (f"BOUND={depth}",)


def completed_levels(t, depth: int) -> list[list[str]]:
    """Levels 0..depth of the least infinite completion of a tree: the tree
    itself when its declared stabilization level is inhabited, otherwise
    the tree plus a zero ray from the lex-greatest deepest member."""
    s = declared_stab(t)
    levels = [[u for u in words_at(k) if member(t, u)] for k in range(max(s, depth) + 1)]
    if levels[s]:
        return levels[:depth + 1]
    inhabited = [k for k in range(s + 1) if levels[k]]
    head = levels[inhabited[-1]][-1] if inhabited else ""
    out = []
    for k in range(depth + 1):
        ray = head + "0" * (k - len(head)) if k > len(head) else None
        words = set(levels[k]) | ({ray} if ray is not None else set())
        if k == 0:
            words.add("")
        out.append(sorted(words))
    return out


def expect_complete_tree(t, depth: int):
    payload = tuple(f"WITNESS={k}:" + " ".join(fmt(u) for u in words)
                    for k, words in enumerate(completed_levels(t, depth)))
    return 0, "YES", payload


def survives(t, u: str, depth: int) -> bool:
    """Does u start a chain of members reaching `depth` levels below it?"""
    frontier = [u] if member(t, u) else []
    for _ in range(depth):
        frontier = [v + b for v in frontier for b in "01" if member(t, v + b)]
    return bool(frontier)


def llpo_path(t, bits: int, horizon: int) -> str:
    """The path `find-path --oracle llpo:H` emits.  At each node the two
    children's survival depths are interleaved (index 2m: the left child
    dies m levels down, 2m+1: the right one does); the bounded LLPO
    search reports the first death within the horizon, and the path
    steps right exactly when that death is on the left."""
    u = ""
    for _ in range(bits):
        first = next((i for i in range(horizon + 1)
                      if not survives(t, u + str(i % 2), i // 2)), None)
        u += "1" if first is not None and first % 2 == 0 else "0"
    return u


def expect_coconvex_bound(b):
    """The bar's witness on the completion's only path (the zero ray);
    the generator's bars give k there, which is also the least bound."""
    wit = b[2]
    return 0, "YES", (f"BOUND={wit[1]}",)


# ---------------------------------------------------------------------------
# Decision-tree functionals.

def fn_eval(f, u: str) -> tuple[int, int]:
    """(value, 1 + largest index queried) on u padded with zeros."""
    top = 0
    while f[0] == "node":
        i = f[1]
        top = max(top, i + 1)
        f = f[3] if i < len(u) and u[i] == "1" else f[2]
    return f[1], top


def query_depth(f) -> int:
    if f[0] == "leaf":
        return 0
    return max(f[1] + 1, query_depth(f[2]), query_depth(f[3]))


def uc_bound(f) -> int:
    """Least N with the value constant on every level-N cylinder."""
    q = query_depth(f)
    table = [fn_eval(f, u)[0] for u in words_at(q)]
    for n in range(q + 1):
        block = 1 << (q - n)
        if all(len(set(table[i:i + block])) == 1 for i in range(0, len(table), block)):
            return n
    return q


def via_fan_bound(f) -> int:
    """Least uniform bound of the bar {u : path modulus on u <= |u|}, the
    bound `uc-bound --via-fan` reports."""
    n = 0
    while not all(any(fn_eval(f, u[:k])[1] <= k for k in range(n + 1))
                  for u in words_at(n)):
        n += 1
    return n


def is_constant(f) -> bool:
    return len({fn_eval(f, u)[0] for u in words_at(query_depth(f))}) == 1


def deco_witness_problem(f, payload: list[str]) -> str | None:
    """None when the payload is one WITNESS=a:b pair with distinct values."""
    if len(payload) != 1 or not payload[0].startswith("WITNESS="):
        return f"expected one WITNESS line, got {payload!r}"
    pair = payload[0][len("WITNESS="):]
    if pair.count(":") != 1:
        return f"malformed witness pair {pair!r}"
    left, right = (w if w != "e" else "" for w in pair.split(":"))
    if fn_eval(f, left)[0] == fn_eval(f, right)[0]:
        return f"witness pair {pair} evaluates to one value"
    return None


def defu_witness_problem(d, payload: list[str]) -> str | None:
    """None when the payload is one WITNESS=w with w outside the set."""
    if len(payload) != 1 or not payload[0].startswith("WITNESS="):
        return f"expected one WITNESS line, got {payload!r}"
    w = payload[0][len("WITNESS="):]
    w = "" if w == "e" else w
    if member(d, w):
        return f"witness {fmt(w)} is inside the set"
    return None


def escapes(d) -> bool:
    """Does some word fall outside d?  Enumerated to the declared stab."""
    s = declared_stab(d)
    return any(not member(d, u) for n in range(s + 1) for u in words_at(n))
