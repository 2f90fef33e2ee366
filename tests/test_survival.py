"""Survival questions from one resumable walk per node: every depth, the
survival verdict and the LLPO-led path, checked against
tests/bruteforce.py, plus the visits the walk is charged."""

from __future__ import annotations

import random

import pytest

from fankit import (DSet, fan_bruteforce, full_set, has_descendant,
                    llpo_bounded_oracle, parse_word, survival, survival_verdict, tree,
                    wkl_from_llpo, wkl_unique_from_fan)
from fankit.errors import BudgetExceededError, CertificateError

from bruteforce import (all_words, brute_has_descendant, brute_least_uniform_bound,
                        brute_llpo_branch)
from corpus import random_convex_tree, random_finite_tree, random_tree
from test_descent import random_trees


def survival_trees(seed: int, count: int):
    """Seeded corpus trees, each also without its stabilization depth (so
    walks run to the depth asked), and trees from random definition files."""
    rng = random.Random(seed)
    for _ in range(count):
        make = rng.choice((random_tree, random_finite_tree, random_convex_tree))
        t = make(rng, rng.randrange(1, 6))
        yield t
        yield DSet(t.member, restriction_closed=True)
    yield from random_trees(seed, count)


def test_survival_agrees_with_bruteforce_in_any_order():
    rng = random.Random(601)
    for t in survival_trees(602, 25):
        for u in all_words(3):
            depths = list(range(7))
            rng.shuffle(depths)
            alive = survival(t, u)
            for d in depths:
                assert alive(d) == brute_has_descendant(t.member, u, d), (u, d)
            assert [alive(d) for d in range(7)] == \
                [brute_has_descendant(t.member, u, d) for d in range(7)]


def test_survival_verdict_agrees_with_bruteforce():
    for t in survival_trees(603, 25):
        for u in all_words(2):
            for depth in range(7):
                v = survival_verdict(t, u, depth)
                dead = next((m for m in range(depth + 1)
                             if not brute_has_descendant(t.member, u, m)), None)
                if dead is None:
                    assert v.is_yes and v.bound == depth
                else:
                    assert v.is_no and v.bound == dead


def test_llpo_path_and_trace_agree_with_bruteforce():
    checked = 0
    for t in survival_trees(604, 25):
        if not t.member(()):
            continue
        for horizon in (3, 8, 13):
            oracle = llpo_bounded_oracle(horizon)
            gen = wkl_from_llpo(t, oracle)
            u: tuple = ()
            expected = []
            for _ in range(8):
                b = brute_llpo_branch(t.member, u, horizon)
                expected.append(f"llpo[{oracle.tag}]@{len(u)}={('EVENS', 'ODDS')[b]}")
                u += (b,)
                if not t.member(u):  # a short horizon can lead into a dead end
                    with pytest.raises(CertificateError):
                        gen.next()
                    break
                assert gen.next() == b
                checked += 1
            assert gen.trace == expected
    assert checked > 800


def unique_ray_tree(rng: random.Random, length: int):
    """One ray (random bits, then zeros) with a full side branch of random
    height hanging off each of its first `length` nodes."""
    ray = tuple(rng.randrange(2) for _ in range(length))
    side = [rng.randrange(5) for _ in range(length)]

    def member(u: tuple) -> bool:
        for k, b in enumerate(u):
            if b != (ray[k] if k < length else 0):
                return k < length and len(u) <= k + side[k]
        return True

    return tree(DSet(member, restriction_closed=True), validate=False), ray


def test_fan_path_bounds_and_scans_agree_with_bruteforce():
    # the fan bound at u is the least bound of the side-death bar, whose
    # membership asks the right child's survival in the avoid tree's order
    rng = random.Random(606)
    fan = fan_bruteforce(12)
    for _ in range(20):
        t, ray = unique_ray_tree(rng, 6)
        gen = wkl_unique_from_fan(t, fan)
        assert gen.take(6) == ray
        for line in gen.trace:
            if line.startswith("fan"):
                u_text, n_text = line.rsplit("@", 1)[1].split("=")
                u = parse_word(u_text)
                bar = lambda v, u=u: (not t.member(u + (0,) + v)  # noqa: E731
                                      or not brute_has_descendant(t.member, u + (1,), len(v)))
                assert int(n_text) == brute_least_uniform_bound(bar, 12)
            else:
                where, n_text, bits = line.split(":")
                u, n = parse_word(where[len("scan@"):]), int(n_text[len("n="):])
                assert bits == "".join(str(int(brute_has_descendant(t.member, u + (b,), n)))
                                       for b in (0, 1))


def test_a_member_past_stab_answers_every_depth(monkeypatch):
    monkeypatch.setenv("FANKIT_BUDGET", "2")
    alive = survival(tree(full_set(), validate=False), (0, 1))  # stab 0
    assert alive(5000) and alive(3) and alive(0)


def counted(t: DSet, calls: list) -> DSet:
    return DSet(lambda u: calls.append(u) or t.member(u), stab=t.stab,
                restriction_closed=True)


def test_one_walk_costs_the_visits_of_its_deepest_question(monkeypatch):
    ray = tree(DSet(lambda u: not any(u), restriction_closed=True), validate=False)
    full_to_6 = tree(DSet(lambda u: len(u) <= 6, restriction_closed=True), validate=False)
    cases = [(ray, (), 30, [True] * 31)]  # too deep for brute force; alive by construction
    rng = random.Random(605)
    small = [(full_to_6, (), 7), (full_to_6, (1, 0), 5)]
    for _ in range(6):
        t = random_tree(rng, 6, ensure_infinite=True)
        small.append((DSet(t.member, restriction_closed=True), (0,), 8))
    for t, u, depth in small:
        cases.append((t, u, depth,
                      [brute_has_descendant(t.member, u, d) for d in range(depth + 1)]))
    for t, u, depth, answers in cases:
        calls: list = []
        assert has_descendant(counted(t, calls), u, depth) == answers[-1]
        visits = len(calls)  # one membership test per visited word
        fresh: list = []
        for d in range(depth + 1):
            has_descendant(counted(t, fresh), u, d)
        assert len(fresh) > visits

        monkeypatch.setenv("FANKIT_BUDGET", str(visits))
        alive = survival(t, u)
        assert [alive(d) for d in range(depth + 1)] == answers
        monkeypatch.setenv("FANKIT_BUDGET", str(visits - 1))
        alive = survival(t, u)
        with pytest.raises(BudgetExceededError):
            for d in range(depth + 1):
                alive(d)
        monkeypatch.delenv("FANKIT_BUDGET")
