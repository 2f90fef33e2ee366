"""Seeded workload generators.

Each generator returns one *pass*: a list of ops, each a definition file,
the produce command line run against it, and the expected answer.  The
timed loop repeats whole passes, so every run sees the same mix of
families and sizes in the same order; the seed picks the concrete words,
trees and flags, never the sizes.  That keeps the figures comparable across
seeds while still varying the inputs fankit sees.

`cli-mix` references come from the brute-force evaluator in refeval.py.
`level-scan` and `oracle-path` inputs are families whose answers are known
by construction; tests in test_bench.py check those against refeval.py
on small sizes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

import refeval as R

WORKLOADS = ("cli-mix", "level-scan", "oracle-path")

CLI_KINDS = ("bar-check", "uniform-bound", "uc-bound", "deco",
             "complete-tree", "find-path", "coconvex-bound", "defu")
CLI_MIX_PER_KIND = 50

# The one input of level-scan that fails at the seed commit: a thin tree
# completed to depth 20 needs a 2**21 enumeration precharge in members_at
# (budget 2**20), although the tree has at most two members per level.
KNOWN_FAILURE_SPEC = "t = tree(finite(e, 1, 10))"
KNOWN_FAILURE_DEPTH = 20


@dataclass(frozen=True)
class Expect:
    """Expected exit code and verdict.  `payload` lists the exact checked
    lines after VERDICT; when the payload is one of several valid
    witnesses, `check` judges it instead (returns a problem or None)."""
    code: int
    verdict: str
    payload: tuple[str, ...] | None = None
    check: Callable[[list[str]], str | None] | None = None


@dataclass(frozen=True)
class Op:
    label: str             # family and size, used to list failures
    spec: str              # definition-file text
    argv: tuple[str, ...]  # subcommand and its flags, without --spec
    expect: Expect


def make_pass(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    ops = {"cli-mix": _cli_mix, "level-scan": _level_scan,
           "oracle-path": _oracle_path}[workload](rng)
    # One fixed interleaving for every seed: the list holds the same
    # families and sizes in the same places whatever the seed, so each op
    # follows the same kind of op in every run (what ran before an op
    # changes its cost through the allocator and the garbage collector).
    random.Random(workload).shuffle(ops)
    return ops


def _bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def _expect(triple) -> Expect:
    code, verdict, payload = triple
    return Expect(code, verdict, payload)


def _op(label: str, name: str, expr, argv: list[str], expect: Expect) -> Op:
    return Op(label, f"{name} = {R.render(expr)}\n", tuple(argv), expect)


# ---------------------------------------------------------------------------
# cli-mix: the distribution of tests/test_cli.py::fuzz_case, with each of the
# eight subcommands drawn equally often per pass.

def _fuzz_word(rng, max_len=3) -> str:
    return _bits(rng, rng.randrange(0, max_len + 1))


def _fuzz_set(rng):
    tpl = rng.randrange(9)
    k = rng.randrange(0, 4)
    i = rng.randrange(0, 3)
    b = rng.randrange(2)
    w = _fuzz_word(rng)
    ws = tuple(_fuzz_word(rng) for _ in range(rng.randrange(1, 3)))
    closure_ws = ("closure", ("finite", ws))
    return [
        ("len_ge", k),
        ("bit", i, b),
        ("prefix", w),
        ("finite", ws),
        closure_ws,
        ("union", ("len_ge", k), ("bit", i, b)),
        ("intersect", ("len_ge", k), closure_ws),
        ("complement", closure_ws),
        ("stab", ("union", ("bit", i, b), ("len_ge", k)), max(k, i + 1)),
    ][tpl]


def _fuzz_fn(rng, depth=0):
    if depth >= 3 or rng.random() < 0.4:
        return ("leaf", rng.randrange(4))
    return ("node", rng.randrange(4), _fuzz_fn(rng, depth + 1), _fuzz_fn(rng, depth + 1))


def _pruned_tree(rng):
    ws = tuple("1" + _fuzz_word(rng, 2) for _ in range(rng.randrange(1, 3)))
    return ("tree", ("complement", ("closure", ("finite", ws))))


def _cli_mix_op(rng, kind: str) -> Op:
    k = rng.randrange(0, 4)
    if kind in ("bar-check", "uniform-bound"):
        s = _fuzz_set(rng)
        n = rng.randrange(2, 7)
        if kind == "bar-check":
            return _op(f"bar-check depth={n}", "s", s,
                       [kind, "--set", "s", "--depth", str(n)],
                       _expect(R.expect_bar_check(s, n)))
        return _op(f"uniform-bound max={n}", "s", s,
                   [kind, "--set", "s", "--max", str(n)],
                   _expect(R.expect_uniform_bound(s, n)))
    if kind == "uc-bound":
        f = _fuzz_fn(rng)
        if rng.random() < 0.5:
            return _op("uc-bound --via-fan", "f", f, [kind, "--fn", "f", "--via-fan"],
                       Expect(0, "YES", (f"BOUND={R.via_fan_bound(f)}",)))
        return _op("uc-bound", "f", f, [kind, "--fn", "f"],
                   Expect(0, "YES", (f"BOUND={R.uc_bound(f)}",)))
    if kind == "deco":
        f = _fuzz_fn(rng)
        return _op("deco", "f", f, [kind, "--fn", "f"], _deco_expect(f, R.is_constant(f)))
    if kind == "complete-tree":
        t = _pruned_tree(rng)
        n = rng.randrange(1, 5)
        return _op(f"complete-tree depth={n}", "t", t,
                   [kind, "--tree", "t", "--depth", str(n)],
                   _expect(R.expect_complete_tree(t, n)))
    if kind == "find-path":
        t = [("tree", ("complement", ("finite", ()))),
             ("tree", ("complement", ("bit", 0, 1))),
             None][rng.randrange(3)] or _pruned_tree(rng)
        n = rng.randrange(2, 7)
        return _op(f"find-path bits={n}", "t", t,
                   [kind, "--tree", "t", "--bits", str(n), "--oracle", "llpo:16"],
                   Expect(0, "YES", (f"PATH={R.fmt(R.llpo_path(t, n, 16))}",)))
    if kind == "coconvex-bound":
        wit = rng.choice([("first_one_plus", k), ("const", k)])
        carrier = ("stab", ("union", ("len_ge", k), ("count_ones_ge", 1)), k)
        b = ("bar", ("coconvex", carrier), wit)
        return _op(f"coconvex-bound k={k}", "b", b, [kind, "--bar", "b"],
                   Expect(0, "YES", (f"BOUND={R.least_uniform_bound(carrier, 8)}",)))
    i = rng.randrange(0, 3)
    d = ("stab", ("union", ("bit", i, rng.randrange(2)), ("len_ge", k)), max(k, i + 1))
    return _op("defu", "d", d, ["defu", "--set", "d", "--oracle", "llpo:16"],
               _defu_expect(d, R.escapes(d)))


def _deco_expect(f, constant: bool) -> Expect:
    if constant:
        return Expect(0, "NOT_EXISTS", ())
    return Expect(0, "EXISTS", check=lambda payload: R.deco_witness_problem(f, payload))


def _defu_expect(d, exists: bool, witness: str | None = None) -> Expect:
    if not exists:
        return Expect(0, "NOT_EXISTS", ())
    if witness is not None:
        return Expect(0, "EXISTS", (f"WITNESS={R.fmt(witness)}",))
    return Expect(0, "EXISTS", check=lambda payload: R.defu_witness_problem(d, payload))


def _cli_mix(rng) -> list[Op]:
    return [_cli_mix_op(rng, kind) for kind in CLI_KINDS for _ in range(CLI_MIX_PER_KIND)]


# ---------------------------------------------------------------------------
# level-scan: full-level kernels in sets, trees and continuity.

def _bar_family(n: int, p: str, closed: bool):
    """union(len_ge(n), prefix(p)), optionally under closure: its least
    uniform bound is n for any nonempty p (a word avoiding p lives at
    every shorter level), and its declared stab is n."""
    base = ("union", ("len_ge", n), ("prefix", p))
    return ("closure", base) if closed else base


def _non_bar(n: int, w: str):
    """Words of length >= n not extending w: stab n, not a bar, and the
    first escaping level-n word is w followed by zeros."""
    return ("intersect", ("len_ge", n), ("complement", ("prefix", w)))


def increasing_tree(rng, qd: int, leaves: int, values):
    """A decision tree of query depth qd whose indices strictly increase
    along every path.  With pairwise distinct leaf values every node is
    essential, so the uniform-continuity bound (and the --via-fan bound)
    is exactly qd; with one repeated value the functional is constant."""
    def build(lo: int, budget: int):
        if budget == 1 or lo >= qd:
            return ("leaf", next(values))
        i = rng.randint(lo, min(qd - 1, lo + 2))
        cap = 1 << (qd - i - 1)
        budget = min(budget, 2 * cap)
        left = rng.randint(max(1, budget - cap), min(cap, budget - 1))
        return ("node", i, build(i + 1, left), build(i + 1, budget - left))
    while True:
        f = build(0, leaves)
        if R.query_depth(f) == qd:
            return f


def path_length(f, qd: int, depth: int = 0) -> int:
    """Nodes passed by all 2^qd words of length qd together: the residual
    scan of `uc-bound --via-fan` walks this many."""
    if f[0] == "leaf":
        return depth << (qd - depth)
    return path_length(f[2], qd, depth + 1) + path_length(f[3], qd, depth + 1)


def steady_tree(rng, qd: int, leaves: int, lo: int, hi: int):
    """An increasing tree whose path length lies in [lo, hi], so that its
    `uc-bound --via-fan` cost varies little from seed to seed."""
    while True:
        f = increasing_tree(rng, qd, leaves, itertools.count())
        if lo <= path_length(f, qd) <= hi:
            return f


def _level_scan(rng) -> list[Op]:
    """54 ops.  Twelve raw n=10 scans make a block of like-cost ops at the
    median, and two raw n=13 scans with two bushy depth-12 completions the
    block just below the costliest input (closure n=11), so p50 and p95
    are order statistics inside a block instead of the boundary between
    two families.  No input takes much over 100 ms, which keeps a pass
    near 2.3 s, so a 30 s run times every input about ten times."""
    ops = []

    def scan(sub, n, closed, bound, label=""):
        kind = "closure" if closed else "raw"
        flag = "--max" if sub == "uniform-bound" else "--depth"
        expect = (Expect(0, "YES", (f"BOUND={n}",)) if bound >= n
                  else Expect(2, "UNKNOWN", (f"BOUND={bound}",)))
        ops.append(_op(f"{sub} {kind} n={n}{label}", "s", _bar_family(n, _bits(rng, 3), closed),
                       [sub, "--set", "s", flag, str(bound)], expect))

    for n in (9, 10, 11, 12, 13):
        scan("uniform-bound", n, False, n + rng.randrange(0, 3))
    for n in (8, 9, 10, 11):
        scan("uniform-bound", n, True, n + rng.randrange(0, 3))
    for closed, n in ((False, 13), (False, 11), (True, 12), (True, 10)):
        low = n - 1 - rng.randrange(0, 3)
        scan("uniform-bound", n, closed, low, " unknown")
        scan("bar-check", n, closed, low, " unknown")
    scan("bar-check", 12, False, 12 + rng.randrange(0, 3))
    scan("bar-check", 10, True, 10 + rng.randrange(0, 3))
    scan("bar-check", 13, False, 13 + rng.randrange(0, 3))
    for sub in ("uniform-bound", "bar-check") * 5 + ("uniform-bound",):
        scan(sub, 10, False, 10 + rng.randrange(0, 3))
    for n in (9, 10, 11):
        # the scan cost grows with the depth and with w's place in the level
        # order, so both are fixed and the seed only flips w's last bit
        w = "111" + _bits(rng, 1)
        depth = n + 1
        ops.append(_op(f"bar-check non-bar n={n}", "s", _non_bar(n, w),
                       ["bar-check", "--set", "s", "--depth", str(depth)],
                       Expect(1, "NO", (f"ESCAPE={(w + '0' * depth)[:depth]}",))))
    for depth in (8, 9, 10, 11, 12, 12):
        q = "1" + _bits(rng, 2)
        t = ("tree", ("complement", ("closure", ("finite", (q,)))))
        payload = tuple(f"WITNESS={k}:" + " ".join(R.fmt(u) for u in R.words_at(k)
                                                     if not u.startswith(q))
                        for k in range(depth + 1))
        ops.append(_op(f"complete-tree bushy depth={depth}", "t", t,
                       ["complete-tree", "--tree", "t", "--depth", str(depth)],
                       Expect(0, "YES", payload)))
    thin = [(_bits(rng, 1), d) for d in sorted(rng.sample(range(12, 20), 5))]
    for x, depth in thin + [("1", KNOWN_FAILURE_DEPTH)]:
        y = _bits(rng, 1) if depth != KNOWN_FAILURE_DEPTH else "0"
        spec = (KNOWN_FAILURE_SPEC if depth == KNOWN_FAILURE_DEPTH
                else f"t = tree(finite(e, {x}, {x}{y}))") + "\n"
        levels = ["e", x] + [x + y + "0" * (k - 2) for k in range(2, depth + 1)]
        ops.append(Op(f"complete-tree thin depth={depth}", spec,
                      ("complete-tree", "--tree", "t", "--depth", str(depth)),
                      Expect(0, "YES", tuple(f"WITNESS={k}:{u}" for k, u in enumerate(levels)))))
    constant_qd = rng.randrange(8, 12)  # one deco input is a constant functional
    for qd in range(8, 12):
        f = increasing_tree(rng, qd, 48, itertools.count())
        ops.append(_op(f"uc-bound qd={qd}", "f", f, ["uc-bound", "--fn", "f"],
                       Expect(0, "YES", (f"BOUND={qd}",))))
        constant = qd == constant_qd
        g = increasing_tree(rng, qd, 48, itertools.repeat(rng.randrange(4)) if constant
                            else itertools.count())
        ops.append(_op(f"deco qd={qd}", "f", g, ["deco", "--fn", "f"],
                       _deco_expect(g, constant)))
    return ops


# ---------------------------------------------------------------------------
# oracle-path: pruned survival search under LLPO, fan re-verification.

def ray_tree(depth: int, r: str = ""):
    """Bushy to `depth`, then only the ray r000... survives (|r| = depth,
    or the zero ray when r is empty)."""
    if not r:
        return ("tree", ("union", ("complement", ("len_ge", depth)),
                         ("complement", ("count_ones_ge", 1))))
    ray = ("intersect", ("prefix", r), ("complement", ("count_ones_ge", r.count("1") + 1)))
    return ("tree", ("union", ("complement", ("len_ge", depth)), ray))


def unique_escape_set(w: str):
    """Every word is inside except w itself: stab |w| + 1, EXISTS with
    witness w."""
    j = len(w)
    inner = ("union", ("complement", ("len_ge", j)),
             ("union", ("len_ge", j + 1), ("complement", ("prefix", w))))
    return ("stab", inner, j + 1)


def full_stab_set(w: str, s: int):
    """The full set, written so its members are not trivially constant."""
    return ("stab", ("union", ("prefix", w), ("complement", ("prefix", w))), s)


def _oracle_path(rng) -> list[Op]:
    ops = []
    # The costliest inputs, the three D=12 find-paths, keep the zero ray: a
    # seeded ray moves their cost from seed to seed, and the 95th percentile
    # falls inside their block.
    for depth, horizon, seeded in ((10, 24, False), (10, 24, True), (11, 28, False),
                                   (11, 28, True), (12, 32, False), (12, 32, False),
                                   (12, 32, False)):
        bits = rng.randint(24, 32)
        r = _bits(rng, depth) if seeded else ""
        ops.append(_op(f"find-path D={depth} llpo:{horizon}{' seeded ray' if seeded else ''}",
                       "t", ray_tree(depth, r),
                       ["find-path", "--tree", "t", "--bits", str(bits),
                        "--oracle", f"llpo:{horizon}"],
                       Expect(0, "YES", (f"PATH={(r + '0' * bits)[:bits]}",))))
    for j in (9, 10):
        w = "1" * (j - 3) + _bits(rng, 3)
        ops.append(_op(f"defu exists stab={j + 1}", "d", unique_escape_set(w),
                       ["defu", "--set", "d", "--oracle", "llpo:32"],
                       _defu_expect(None, True, witness=w)))
    # Extra copies of mid-sized inputs: with 34 ops a pass, both medians
    # fall among the seven --via-fan qd=10 ops.
    for s in (10, 11, 12, 12, 13, 13):
        ops.append(_op(f"defu not-exists stab={s}", "d",
                       full_stab_set(_bits(rng, 3), s),
                       ["defu", "--set", "d", "--oracle", "llpo:32"],
                       _defu_expect(None, False)))
    for k in (10, 11, 12, 12, 13, 14):
        wit = rng.choice([("first_one_plus", k), ("const", k)])
        b = ("bar", ("coconvex", ("stab", ("union", ("len_ge", k), ("count_ones_ge", 1)), k)), wit)
        ops.append(_op(f"coconvex-bound k={k}", "b", b, ["coconvex-bound", "--bar", "b"],
                       _expect(R.expect_coconvex_bound(b))))
    # qd=10 trees of like path length (about a third of random qd=10 trees
    # qualify): they hold both medians.
    for qd in (8, 9, 10, 11) * 2 + (10,) * 5:
        f = steady_tree(rng, 10, 48, 4300, 4700) if qd == 10 else \
            increasing_tree(rng, qd, 48, itertools.count())
        ops.append(_op(f"uc-bound --via-fan qd={qd}", "f", f,
                       ["uc-bound", "--fn", "f", "--via-fan"],
                       Expect(0, "YES", (f"BOUND={qd}",))))
    return ops
