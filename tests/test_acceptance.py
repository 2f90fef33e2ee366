"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value comes from an independent brute-force route in
bruteforce.py (direct quantifier enumeration over membership functions),
never from the code path under test.  Counts, depths, and time limits
are fixed; run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

from __future__ import annotations

import random
import time

from fankit import (bar_verdict, bound_of, closure, coconvex_bound,
                    complete, convexity_verdict, deco_decide,
                    defu_set_from_functional, defu_via_wkl, eval_word,
                    fan_bruteforce, fan_from_lpl, functional_from_bar,
                    functional_from_defu, has_descendant, is_constant,
                    is_infinite_to, iter_level, llpo_bounded_oracle,
                    lpl_from_wkl, materialize, members_at, path_modulus,
                    query_depth, residual, survivor_width, uc_bound_bruteforce,
                    uc_via_fan, uniform_bound, wkl_from_llpo,
                    wkl_oracle_from_llpo)

from bruteforce import (all_words, brute_least_uniform_bound,
                        brute_longest_path_prefix_ok, brute_survivors,
                        brute_tree_infinite_to, words_at)
from corpus import (random_bar_interior_set, random_convex_tree, random_dset,
                    random_ext_closed_bar, random_finite_tree,
                    random_functional, random_coconvex_bar,
                    random_stabilized_bar, random_tree)
from test_cli import run_fuzz_case


def _report(name: str, started: float, limit: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    if limit is not None:
        assert elapsed <= limit, f"{name} took {elapsed:.1f}s, limit {limit}s"
        print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s <= {limit}s)")
    else:
        print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s)")


def test_criterion_1_closure_suite():
    started = time.perf_counter()
    rng = random.Random(1001)
    for _ in range(500):
        b = random_dset(rng, rng.randrange(0, 7))
        bb = closure(b)
        for u in all_words(8):
            member = bb.member(u)
            if b.member(u):
                assert member, "a set embeds in its closure"
            if member and len(u) < 8:
                assert bb.member(u + (0,)) and bb.member(u + (1,)), \
                    "the closure is extension-closed"
        assert bb.extension_closed  # detachability: both sides stay decidable
        v_b = bar_verdict(b, 8)
        if v_b.is_yes:
            v_bb = bar_verdict(bb, 8)
            assert v_bb.is_yes and v_bb.bound <= v_b.bound
        u_bb = uniform_bound(bb, 8)
        if u_bb.is_yes:
            u_b = uniform_bound(b, 8)
            assert u_b.is_yes and u_b.bound <= u_bb.bound
    _report("1 closure-suite (500 sets, depth 8)", started, 30.0)


def test_criterion_2_completion_suite():
    started = time.perf_counter()
    rng = random.Random(1002)
    wkl = wkl_oracle_from_llpo(llpo_bounded_oracle(16))
    for i in range(300):
        s = rng.randrange(1, 7)
        if i % 3 == 0:
            t = random_convex_tree(rng, s, ensure_infinite=(i % 6 == 0))
        elif i % 3 == 1:
            t = random_tree(rng, s, ensure_infinite=True)
        else:
            t = random_finite_tree(rng, s)
        tc = complete(t)
        # (a) the tree embeds in its completion
        for u in all_words(8):
            if t.member(u):
                assert tc.member(u)
        # (b) an infinite tree completes to itself
        if brute_tree_infinite_to(t.member, s):
            for u in all_words(8):
                assert t.member(u) == tc.member(u)
        # (c) convexity survives completion
        if t.convex:
            assert convexity_verdict(tc, 8, "convex").is_yes
        # (d) finite trees complete to a single surviving line
        else_finite = not brute_tree_infinite_to(t.member, s)
        if else_finite:
            for k in range(9):
                assert survivor_width(tc, k, 8) <= 1
        # completions are infinite
        assert is_infinite_to(tc, 8).is_yes
        # (e) depth-8 survivor prefixes restrict into the tree everywhere
        for k in range(9):
            for u in members_at(tc, k):
                if has_descendant(tc, u, 8 - k):
                    assert brute_longest_path_prefix_ok(t.member, u, 8)
        # paths of the completion are longest paths: 16-bit prefixes
        prefix = lpl_from_wkl(t, wkl).take(16)
        assert brute_longest_path_prefix_ok(t.member, prefix, 8)
        for k in range(1, 17):
            assert tc.member(prefix[:k])
    _report("2 completion-suite (300 trees, depth 8, 16-bit paths)", started, 60.0)


def test_criterion_3_oracle_path_soundness():
    started = time.perf_counter()
    rng = random.Random(1003)
    oracle = llpo_bounded_oracle(16)
    for _ in range(100):
        t = random_tree(rng, rng.randrange(1, 7), ensure_infinite=True)
        gen = wkl_from_llpo(t, oracle)
        prefix = gen.take(10)  # emission checks run inside the generator
        survivors = brute_survivors(t.member, 10, 16)
        assert prefix in survivors, "emitted prefix must survive to depth 16"
    _report("3 oracle-path soundness (100 trees, h=16)", started)


def test_criterion_4_reduction_bound_agreement():
    started = time.perf_counter()
    rng = random.Random(1004)
    oracle = wkl_oracle_from_llpo(llpo_bounded_oracle(16))
    lpl = lambda t: lpl_from_wkl(t, oracle)
    total = 200
    equal = 0
    for _ in range(total):
        b = random_ext_closed_bar(rng, rng.randrange(0, 7))
        n = fan_from_lpl(b, lpl)
        least = brute_least_uniform_bound(b.carrier.member, 8)
        assert least is not None
        assert n >= least
        assert all(any(b.carrier.member(u[:k]) for k in range(n + 1))
                   for u in words_at(n)), "returned bound must pass the level scan"
        equal += int(n == least)
    assert equal >= int(0.9 * total), f"only {equal}/{total} bounds were minimal"
    print(f"  (bound equality: {equal}/{total})")
    _report("4 reduction-vs-brute-force bounds (200 bars)", started)


def test_criterion_5_coconvex_bound():
    started = time.perf_counter()
    rng = random.Random(1005)
    for _ in range(200):
        b = random_coconvex_bar(rng, rng.randrange(0, 7))
        n = coconvex_bound(b)
        least = brute_least_uniform_bound(b.carrier.member, 8)
        assert n == least, f"expected the exact least bound {least}, got {n}"
    _report("5 co-convex constructive bounds (200 bars, exact)", started, 30.0)


def test_criterion_6_continuity_square():
    started = time.perf_counter()
    rng = random.Random(1006)
    fan = fan_bruteforce(12)
    for _ in range(500):
        f = random_functional(rng, max_index=5)
        assert query_depth(f) <= 6
        n = uc_via_fan(f, path_modulus(f), fan)
        for u in words_at(n):
            assert is_constant(residual(f, u)).constant
        assert uc_bound_bruteforce(f) <= query_depth(f)
    _report("6 continuity square (500 trees, exhaustive)", started, 60.0)


def test_criterion_7_nonconstancy_roundtrip():
    started = time.perf_counter()
    rng = random.Random(1007)
    wkl = wkl_oracle_from_llpo(llpo_bounded_oracle(16))
    mismatches = 0
    for _ in range(300):
        f = random_functional(rng, max_index=5)
        d = defu_set_from_functional(f)
        truth = any(not d.member(u) for u in all_words(d.stab))
        mismatches += int(deco_decide(f).exists != truth)
    for _ in range(300):
        d = random_bar_interior_set(rng, rng.randrange(1, 7))
        truth = any(not d.member(u) for u in all_words(d.stab))
        p = functional_from_defu(d)
        positive = any(eval_word(p, u) > 0 for u in words_at(d.stab))
        mismatches += int(positive != truth)
        mismatches += int(defu_via_wkl(d, wkl).exists != truth)
    assert mismatches == 0
    _report("7 constancy/escape round trip (300 + 300)", started)


def test_criterion_8_bar_to_functional_bound():
    started = time.perf_counter()
    rng = random.Random(1008)
    for _ in range(100):
        b = random_stabilized_bar(rng, rng.randrange(0, 7))
        f = materialize(functional_from_bar(b), depth_cap=14)
        v = uniform_bound(b.carrier, 10)
        assert v.is_yes
        assert bound_of(f) == v.bound
    _report("8 bar-to-functional bound extraction (100 bars, exact)", started)


def test_criterion_9_cli_fuzz(tmp_path):
    started = time.perf_counter()
    rng = random.Random(1009)
    for idx in range(1000):
        run_fuzz_case(rng, tmp_path, idx)
    _report("9 CLI certificate round trip (1000 runs)", started)
