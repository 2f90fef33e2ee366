"""Oracle interfaces and the reductions between the omniscience principles."""

from __future__ import annotations

import contextvars
import itertools
import random

import pytest

from fankit import (DSet, Parity, Seq, ZERO, convexity_verdict, finite_set,
                    full_set, is_all_one, is_all_zero, llpo_bounded,
                    llpo_bounded_oracle, llpo_from_path_oracle, llpo_probe_tree,
                    lpl_from_wkl, restrict, tree, wkl_from_llpo,
                    wkl_oracle_from_llpo)
from fankit._budget import RUN_METER, Meter
from fankit.errors import BudgetExceededError, CertificateError, PreconditionError

from bruteforce import brute_survivors
from corpus import random_tree


def one_at(index):
    return Seq.eventually_constant((0,) * index + (1,), 0)


def test_llpo_bounded_zero_sequence():
    assert llpo_bounded(ZERO, 8) is Parity.EVENS


def test_llpo_bounded_single_one():
    assert llpo_bounded(one_at(3), 8) is Parity.EVENS
    assert llpo_bounded(one_at(4), 8) is Parity.ODDS


def test_llpo_bounded_rejects_two_ones():
    alpha = Seq.eventually_constant((1, 0, 1), 0)
    with pytest.raises(PreconditionError):
        llpo_bounded(alpha, 8)


def full_tree():
    return tree(full_set(), validate=False)


def one_ray_tree():
    return tree(DSet(lambda u: all(b == 1 for b in u), restriction_closed=True),
                validate=False)


def spine_tree():
    def mem(u):
        if len(u) == 0 or u == (0,):
            return True
        return u[0] == 1 and not any(u[1:])
    return tree(DSet(mem, restriction_closed=True), validate=False)


def test_wkl_from_llpo_full_tree_prefers_zeros():
    gen = wkl_from_llpo(full_tree(), llpo_bounded_oracle(8))
    assert gen.take(5) == (0, 0, 0, 0, 0)
    assert all("EVENS" in line for line in gen.trace)


def test_wkl_from_llpo_one_ray():
    t = one_ray_tree()
    gen = wkl_from_llpo(t, llpo_bounded_oracle(8))
    assert gen.take(4) == (1, 1, 1, 1)
    assert brute_survivors(t.member, 4, 10) == {(1, 1, 1, 1)}


def test_wkl_from_llpo_spine():
    t = spine_tree()
    gen = wkl_from_llpo(t, llpo_bounded_oracle(8))
    assert gen.take(3) == (1, 0, 0)
    assert brute_survivors(t.member, 3, 9) == {(1, 0, 0)}


def test_a_path_charges_one_meter_across_its_bits(monkeypatch):
    # outside a run the LLPO scans of all 100 bits charge the generator's
    # one meter, as they charge the run's inside one
    monkeypatch.setenv("FANKIT_BUDGET", "64")

    def refusal():
        gen = wkl_from_llpo(tree(full_set(), validate=False), llpo_bounded_oracle(16))
        with pytest.raises(BudgetExceededError) as err:
            gen.take(100)
        return str(err.value)

    def in_a_run():
        RUN_METER.set(Meter())
        return refusal()

    assert refusal() == contextvars.copy_context().run(in_a_run) == \
        "LLPO search to horizon 16: 74 words used, budget 64"


def test_wkl_prefixes_are_members_on_random_corpus():
    rng = random.Random(9)
    oracle = llpo_bounded_oracle(16)
    for _ in range(30):
        t = random_tree(rng, rng.randrange(1, 7), ensure_infinite=True)
        gen = wkl_from_llpo(t, oracle)
        prefix = gen.take(8)
        assert prefix in brute_survivors(t.member, 8, 12)


def test_lpl_from_wkl_single_branch():
    t = tree(finite_set([(), (0,)]), validate=False)
    gen = lpl_from_wkl(t, wkl_oracle_from_llpo(llpo_bounded_oracle(8)))
    p = gen.take(4)
    assert p == (0, 0, 0, 0)
    assert restrict(p, 1) == (0,) and t.member((0,))


def test_lpl_from_wkl_empty_tree_gives_zeros():
    t = tree(finite_set([]), validate=False)
    gen = lpl_from_wkl(t, wkl_oracle_from_llpo(llpo_bounded_oracle(8)))
    assert gen.take(5) == (0, 0, 0, 0, 0)


def test_lpl_from_wkl_full_tree():
    gen = lpl_from_wkl(full_tree(), wkl_oracle_from_llpo(llpo_bounded_oracle(8)))
    assert gen.take(4) == (0, 0, 0, 0)


def test_probe_tree_matches_direct_enumeration():
    for alpha in (ZERO, one_at(3), one_at(4), one_at(0), one_at(5)):
        probe = llpo_probe_tree(alpha)
        for n in range(7):
            for u in itertools.product((0, 1), repeat=n):
                if len(u) <= 1:
                    expected = True
                elif u[0] == 0:
                    expected = is_all_one(u[1:]) and all(
                        alpha.at(2 * i) == 0 for i in range(len(u)))
                else:
                    expected = is_all_zero(u[1:]) and all(
                        alpha.at(2 * i + 1) == 0 for i in range(len(u)))
                assert probe.member(u) == expected, (alpha.describe(), u)


def test_probe_tree_is_convex():
    for alpha in (ZERO, one_at(2), one_at(3), one_at(6)):
        probe = llpo_probe_tree(alpha)
        assert convexity_verdict(probe, 8, "convex").is_yes


def path_oracle(horizon=12):
    oracle = llpo_bounded_oracle(horizon)
    return lambda t: wkl_from_llpo(t, oracle)


def test_llpo_from_path_oracle_zero_sequence():
    assert llpo_from_path_oracle(ZERO, path_oracle(), 12) is Parity.EVENS


def test_llpo_from_path_oracle_even_one():
    assert llpo_from_path_oracle(one_at(4), path_oracle(), 12) is Parity.ODDS


def test_llpo_from_path_oracle_odd_one():
    assert llpo_from_path_oracle(one_at(3), path_oracle(), 12) is Parity.EVENS


def test_llpo_from_path_oracle_checks_precondition():
    alpha = Seq.eventually_constant((1, 1), 0)
    with pytest.raises(PreconditionError):
        llpo_from_path_oracle(alpha, path_oracle(), 12)


def test_llpo_from_path_oracle_rejects_foreign_path():
    alpha = one_at(1)  # right arm of the probe tree dies immediately

    class LyingGen:  # a generator that does not re-check its own bits
        def take(self, n):
            return (1,) * n

    def lying_oracle(t):
        return LyingGen()

    with pytest.raises(CertificateError):
        llpo_from_path_oracle(alpha, lying_oracle, 12)


def test_roundtrip_agrees_with_bounded_llpo():
    # all eventually-constant-zero sequences with at most one 1 in a
    # length-6 prefix; the zero sequence accepts either disjunct
    cases = [ZERO] + [one_at(i) for i in range(6)]
    for alpha in cases:
        via_tree = llpo_from_path_oracle(alpha, path_oracle(16), 16)
        direct = llpo_bounded(alpha, 16)
        assert via_tree is direct


def test_probe_answer_is_sound():
    # whichever side is named all-zero really is all-zero
    for i in range(8):
        alpha = one_at(i)
        answer = llpo_from_path_oracle(alpha, path_oracle(16), 16)
        if answer is Parity.EVENS:
            assert all(alpha.at(2 * n) == 0 for n in range(10))
        else:
            assert all(alpha.at(2 * n + 1) == 0 for n in range(10))
