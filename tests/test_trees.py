"""Trees: depth diagnostics, completion, and the convex-unique path descent."""

from __future__ import annotations

import random

import pytest

import fankit
from fankit import (DSet, Seq, bar_verdict, complete, convexity_verdict, dset,
                    escape_witness, find_path_convex_unique, finite_set,
                    full_set, has_descendant, is_infinite_to, is_summit, iter_level,
                    least_uniform_bound, len_ge, llpo_bounded, llpo_bounded_oracle,
                    llpo_from_path_oracle, llpo_probe_tree, members_at, survival_verdict,
                    survivor_width, tree, uniform_bound, wkl_from_llpo)
from fankit.errors import (BudgetExceededError, CertificateError, InconsistencyError,
                           PreconditionError)
from fankit.trees import tree_levels

from bruteforce import (all_words, brute_longest_path_prefix_ok,
                        brute_survivors, brute_tree_infinite_to, words_at)
from corpus import random_convex_tree, random_finite_tree, random_tree


def full_tree():
    return tree(full_set(), validate=False)


def zero_ray_tree(stab=None, convex=True):
    carrier = DSet(lambda u: not any(u), stab=stab,
                   restriction_closed=True, convex=convex)
    return tree(carrier, validate=False)


def one_ray_tree():
    carrier = DSet(lambda u: all(b == 1 for b in u),
                   restriction_closed=True, convex=True)
    return tree(carrier, validate=False)


def spine_tree():
    # e and (0), plus the ray 1,0,0,0,...
    def mem(u):
        if len(u) == 0 or u == (0,):
            return True
        return u[0] == 1 and not any(u[1:])
    return tree(DSet(mem, restriction_closed=True, convex=True), validate=False)


def test_tree_factory_validates_restriction_closure():
    with pytest.raises(PreconditionError):
        tree(DSet(lambda u: len(u) == 2))


def test_a_tree_is_a_set_flagged_restriction_closed():
    assert not hasattr(fankit, "Tree") and not hasattr(fankit.trees, "Tree")
    base = finite_set([(), (0,), (1,)])
    finite = tree(base)
    # tree() keeps the set's membership and flags, and adds only the flag
    assert finite == base.replace(restriction_closed=True)
    made = [finite, tree(full_set()), complete(finite), complete(tree(finite_set([]))),
            complete(zero_ray_tree(stab=1)), llpo_probe_tree(Seq.eventually_constant((), 0))]
    for t in made:
        assert type(t) is DSet and t.restriction_closed


def test_is_infinite_to():
    assert is_infinite_to(full_tree(), 6).is_yes
    v = is_infinite_to(tree(finite_set([(), (0,)]), validate=False), 3)
    assert v.is_no and v.bound == 2
    assert is_infinite_to(zero_ray_tree(), 8).is_yes
    # a member at the stab owns its cone, so no depth is too deep to answer
    assert is_infinite_to(tree(full_set()), 5000).is_yes
    assert is_infinite_to(tree(full_set()), 5000).bound == 5000


def test_summit_of_empty_tree_is_root():
    t = tree(finite_set([]), validate=False)
    assert is_summit(t, ())
    assert not is_summit(t, (0,))


def test_infinite_tree_has_no_summit():
    t = tree(full_set(), validate=False)
    for u in all_words(4):
        assert not is_summit(t, u)


def test_summit_is_deepest_lex_greatest_member():
    t = tree(finite_set([(), (0,)]), validate=False)
    assert is_summit(t, (0,))
    assert not is_summit(t, ())
    t2 = tree(finite_set([(), (0,), (1,)]), validate=False)
    assert is_summit(t2, (1,))  # lex-greatest at the top level
    assert not is_summit(t2, (0,))


def test_complete_empty_tree_is_zero_ray():
    t = tree(finite_set([]), validate=False)
    tc = complete(t)
    for u in all_words(6):
        assert tc.member(u) == (not any(u))


def test_complete_infinite_tree_is_itself():
    t = tree(full_set(), validate=False)
    tc = complete(t)
    assert tc is t


def test_complete_hangs_ray_on_summit():
    t = tree(finite_set([(), (0,), (1,)]), validate=False)
    tc = complete(t)
    assert tc.member((1, 0, 0))
    assert not tc.member((0, 0))
    for u in all_words(6):
        expected = t.member(u) or u == () or (
            len(u) >= 1 and u[0] == 1 and not any(u[1:]))
        assert tc.member(u) == expected


def test_complete_requires_stab():
    with pytest.raises(PreconditionError):
        complete(zero_ray_tree(stab=None))


def test_has_descendant():
    assert has_descendant(full_tree(), (0,), 5)
    zt = zero_ray_tree()
    assert not has_descendant(zt, (1,), 1)
    assert has_descendant(zt, (0,), 4)


def test_has_descendant_budget(monkeypatch):
    # full to depth 10 and dead at 11: the search visits all 4095 words
    t = tree(DSet(lambda u: len(u) <= 10, restriction_closed=True), validate=False)
    assert not has_descendant(t, (), 11)
    monkeypatch.setenv("FANKIT_BUDGET", "64")
    with pytest.raises(BudgetExceededError):
        has_descendant(t, (), 11)


def test_thin_survival_is_metered_by_visits():
    # about two words per level, so no depth here comes near the budget
    zt = zero_ray_tree()
    for depth in (21, 40):
        assert has_descendant(zt, (), depth)
        assert has_descendant(zt, (0,) * 1100, depth)  # deeper root than the scan cap
        assert survival_verdict(zt, (0,), depth).is_yes
        assert not has_descendant(zt, (1,), depth)


def test_survival_verdict():
    v = survival_verdict(full_tree(), (), 5)
    assert v.is_yes and v.bound == 5
    t = tree(finite_set([(), (0,)]), validate=False)
    v = survival_verdict(t, (0,), 3)
    assert v.is_no and v.bound == 1
    v = survival_verdict(zero_ray_tree(), (0,), 6)
    assert v.is_yes and v.bound == 6
    v = survival_verdict(t, (1,), 3)
    assert v.is_no and v.bound == 0


def test_survivor_width():
    assert survivor_width(full_tree(), 2, 5) == 4
    assert survivor_width(zero_ray_tree(), 3, 6) == 1
    t = tree(finite_set([(), (0,), (1,)]), validate=False)
    assert survivor_width(t, 1, 2) == 0
    with pytest.raises(PreconditionError):
        survivor_width(t, 3, 2)


def test_find_path_zero_ray():
    t = zero_ray_tree()
    gen = find_path_convex_unique(t, escape_witness(t, 32))
    assert gen.take(6) == (0, 0, 0, 0, 0, 0)
    assert brute_survivors(t.member, 6, 12) == {(0,) * 6}


def test_find_path_one_ray():
    t = one_ray_tree()
    gen = find_path_convex_unique(t, escape_witness(t, 32))
    assert gen.take(4) == (1, 1, 1, 1)
    assert brute_survivors(t.member, 4, 10) == {(1,) * 4}


def test_find_path_spine():
    t = spine_tree()
    gen = find_path_convex_unique(t, escape_witness(t, 32))
    assert gen.take(3) == (1, 0, 0)
    assert brute_survivors(t.member, 3, 9) == {(1, 0, 0)}
    assert gen.trace  # witness queries were recorded


def test_find_path_requires_convex_flag():
    t = zero_ray_tree(convex=False)
    with pytest.raises(PreconditionError):
        find_path_convex_unique(t, escape_witness(t, 16))


def test_find_path_rejects_lying_witness():
    t = zero_ray_tree()
    gen = find_path_convex_unique(t, lambda alpha: 0)
    with pytest.raises(CertificateError):
        gen.take(1)


def test_find_path_flags_dead_tree():
    t = tree(DSet(lambda u: len(u) <= 1, restriction_closed=True, convex=True),
             validate=False)
    wit = escape_witness(t, 16)
    gen = find_path_convex_unique(t, wit)
    with pytest.raises(InconsistencyError):
        gen.take(3)


def test_a_path_stops_at_the_depth_cap():
    # a path is bounded like any scan: by the meter its advance rule
    # charges and by the depth cap, not by a bit count of its own
    gen = wkl_from_llpo(full_tree(), llpo_bounded_oracle(4))
    assert gen.take(100) == (0,) * 100
    assert gen.take(1024) == (0,) * 1024
    with pytest.raises(BudgetExceededError) as err:
        gen.take(1025)
    assert str(err.value) == "path would go 1025 bits deep, past the cap of 1024"
    # bit 1025's LLPO question was never asked
    assert len(gen.trace) == 1024 and gen.prefix == (0,) * 1024


def test_library_scans_refuse_a_negative_depth():
    # a negative depth has no answer: YES(1) from bar_verdict, say, would
    # name a bound that is not one, and take(-1) would cut the path short
    t = full_tree()
    gen = find_path_convex_unique(zero_ray_tree(), escape_witness(zero_ray_tree(), 64))
    gen.take(5)
    zeros = Seq.eventually_constant((), 0)
    path_oracle = lambda probe: wkl_from_llpo(probe, llpo_bounded_oracle(4))  # noqa: E731
    for what, call in (
            ("depth", lambda: bar_verdict(len_ge(2), -1)),
            ("depth", lambda: uniform_bound(len_ge(2), -1)),
            ("depth", lambda: least_uniform_bound(len_ge(2), -1)),
            ("depth", lambda: is_infinite_to(t, -1)),
            ("depth", lambda: convexity_verdict(len_ge(2), -1)),
            ("depth", lambda: survival_verdict(t, (), -1)),
            ("depth", lambda: has_descendant(t, (), -1)),
            ("depth", lambda: tree_levels(t, -1)),
            ("depth", lambda: members_at(t, -1)),
            ("depth", lambda: survivor_width(t, -1, 2)),
            ("level", lambda: iter_level(-1)),
            ("horizon", lambda: dset(lambda u: True, stab=0, horizon=-1)),
            ("horizon", lambda: tree(full_set(), horizon=-1)),
            ("horizon", lambda: llpo_bounded(zeros, -1)),
            ("horizon", lambda: llpo_bounded_oracle(-1).decide(zeros)),
            ("horizon", lambda: wkl_from_llpo(t, llpo_bounded_oracle(-1)).take(3)),
            ("horizon", lambda: llpo_from_path_oracle(zeros, path_oracle, -1)),
            ("bits", lambda: gen.take(-1))):
        with pytest.raises(PreconditionError) as err:
            call()
        assert str(err.value) == f"{what} must be nonnegative, got -1"
    assert gen.take(5) == (0,) * 5


def test_completion_suite_random_trees():
    rng = random.Random(42)
    for i in range(40):
        s = rng.randrange(1, 7)
        if i % 3 == 0:
            t = random_convex_tree(rng, s)
        elif i % 3 == 1:
            t = random_tree(rng, s, ensure_infinite=True)
        else:
            t = random_finite_tree(rng, s)
        tc = complete(t)
        # the original tree embeds in its completion
        for u in all_words(8):
            if t.member(u):
                assert tc.member(u)
        # completions are always infinite
        assert is_infinite_to(tc, 8).is_yes
        infinite = brute_tree_infinite_to(t.member, s)
        if infinite:
            for u in all_words(8):
                assert t.member(u) == tc.member(u)
        else:
            for k in range(9):
                assert survivor_width(tc, k, 8) <= 1
        if t.convex:
            assert convexity_verdict(tc, 8, "convex").is_yes
        # depth-8 survivor prefixes of the completion restrict into the tree
        for k in range(9):
            for u in members_at(tc, k):
                if has_descendant(tc, u, 8 - k):
                    assert brute_longest_path_prefix_ok(t.member, u, 8)


def test_longest_path_prefixes_vs_infinity():
    rng = random.Random(77)
    for i in range(25):
        s = rng.randrange(1, 6)
        t = random_tree(rng, s, ensure_infinite=(i % 2 == 0))
        infinite = brute_tree_infinite_to(t.member, 6)
        prefixes = [p for p in words_at(6)
                    if brute_longest_path_prefix_ok(t.member, p, 6)]
        assert prefixes, "a longest-path prefix always exists at desk scale"
        if infinite:
            assert all(t.member(p) for p in prefixes)
        else:
            assert any(not t.member(p) for p in prefixes)
