"""Bars, fan oracles, and the bound-producing reductions."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from fankit import (Bar, DSet, FanOracle, ZERO, closure, coconvex_bound,
                    dset, fan_bruteforce, fan_from_lpl, finite_set,
                    interior, iter_level, len_ge, llpo_bounded_oracle,
                    lpl_from_wkl, minimal_witness, tree, union_sets,
                    wkl_oracle_from_llpo, wkl_unique_from_fan)
from fankit.cli import run
from fankit.errors import (BudgetExceededError, CertificateError, InconsistencyError,
                           PreconditionError, WitnessError)
from fankit.specfile import parse_specdoc

from bruteforce import brute_least_uniform_bound, brute_survivors
from corpus import (minimal_bar_witness, random_coconvex_bar,
                    random_ext_closed_bar)


def lpl_backend(horizon=12):
    oracle = wkl_oracle_from_llpo(llpo_bounded_oracle(horizon))
    return lambda t: lpl_from_wkl(t, oracle)


def test_bar_query_rechecks_witness():
    b = Bar(len_ge(2), lambda alpha: 2)
    assert b.query(ZERO) == 2
    lying = Bar(len_ge(2), lambda alpha: 1)
    with pytest.raises(CertificateError):
        lying.query(ZERO)


def test_bar_without_witness_refuses_queries():
    with pytest.raises(PreconditionError):
        Bar(len_ge(1)).query(ZERO)


def test_minimal_witness():
    wit = minimal_witness(len_ge(3), 8)
    assert wit(ZERO) == 3
    with pytest.raises(WitnessError):
        minimal_witness(finite_set([(1,)]), 5)(ZERO)


def test_fan_bruteforce_examples():
    fan = fan_bruteforce(8)
    assert fan.bound(Bar(len_ge(2))) == 2
    with pytest.raises(PreconditionError):
        fan.bound(Bar(finite_set([(1,)])))
    assert fan.bound(Bar(closure(dset(lambda u: len(u) == 3, stab=4)))) == 3


def test_fan_oracle_verifies_before_release():
    lying = FanOracle(lambda b: 1, tag="liar")
    with pytest.raises(CertificateError):
        lying.bound(Bar(len_ge(2)))
    honest = FanOracle(lambda b: 3, tag="coarse")
    assert honest.bound(Bar(len_ge(2))) == 3  # sound but not minimal


def test_fan_from_lpl_simple():
    b = Bar(len_ge(2), lambda alpha: 2)
    assert fan_from_lpl(b, lpl_backend()) == 2


def test_fan_from_lpl_mixed_bar():
    base = union_sets(finite_set([(1,)]), len_ge(3))
    b = Bar(closure(base), lambda alpha: 1 if alpha.at(0) == 1 else 3)
    n = fan_from_lpl(b, lpl_backend())
    assert n == 3
    assert brute_least_uniform_bound(b.carrier.member, 8) == 3


def test_fan_from_lpl_root_bar():
    b = Bar(closure(finite_set([()])), lambda alpha: 0)
    assert fan_from_lpl(b, lpl_backend()) == 0


def test_fan_from_lpl_preconditions():
    with pytest.raises(PreconditionError):
        fan_from_lpl(Bar(len_ge(2)), lpl_backend())  # no witness
    not_closed = Bar(finite_set([(0,)]), lambda alpha: 1)
    with pytest.raises(PreconditionError):
        fan_from_lpl(not_closed, lpl_backend())


def test_fan_from_lpl_rejects_bad_witness():
    # witness claims a level the carrier misses
    b = Bar(len_ge(2), lambda alpha: 5)
    assert fan_from_lpl(b, lpl_backend()) == 5  # sound, just not minimal
    bad = Bar(len_ge(2), lambda alpha: 1)
    with pytest.raises(CertificateError):
        fan_from_lpl(bad, lpl_backend())


def zero_tree():
    return tree(DSet(lambda u: not any(u), restriction_closed=True), validate=False)


def one_tree():
    return tree(DSet(lambda u: all(b == 1 for b in u), restriction_closed=True),
                validate=False)


def spine_tree():
    def mem(u):
        if len(u) == 0 or u == (0,):
            return True
        return u[0] == 1 and not any(u[1:])
    return tree(DSet(mem, restriction_closed=True), validate=False)


def test_wkl_unique_from_fan_rays():
    fan = fan_bruteforce(10)
    g0 = wkl_unique_from_fan(zero_tree(), fan)
    assert g0.take(4) == (0, 0, 0, 0)
    g1 = wkl_unique_from_fan(one_tree(), fan)
    assert g1.take(4) == (1, 1, 1, 1)
    t = spine_tree()
    g2 = wkl_unique_from_fan(t, fan)
    assert g2.take(3) == (1, 0, 0)
    assert brute_survivors(t.member, 3, 9) == {(1, 0, 0)}


def test_wkl_unique_from_fan_flags_dead_tree():
    t = tree(finite_set([(), (0,)]), validate=False)
    gen = wkl_unique_from_fan(t, fan_bruteforce(10))
    with pytest.raises(InconsistencyError):
        gen.take(2)


def test_coconvex_bound_length_thresholds():
    for k in (0, 1, 4):
        b = Bar(len_ge(k), lambda alpha, k=k: k)
        assert coconvex_bound(b) == k


def test_coconvex_bound_one_or_depth():
    def member(u):
        return len(u) >= 3 or any(b == 1 for b in u)

    def wit(alpha):
        for i in range(3):
            if alpha.at(i) == 1:
                return i + 1
        return 3

    b = Bar(dset(member, stab=3, extension_closed=True, co_convex=True), wit)
    assert coconvex_bound(b) == 3
    assert brute_least_uniform_bound(member, 8) == 3


def test_coconvex_bound_first_bit():
    def member(u):
        return (len(u) >= 1 and u[0] == 1) or len(u) >= 2

    b = Bar(dset(member, stab=2, extension_closed=True, co_convex=True),
            minimal_bar_witness(dset(member, stab=2, validate=False), 6))
    assert coconvex_bound(b) == 2
    assert brute_least_uniform_bound(member, 8) == 2


def test_coconvex_bound_closes_the_carrier_itself():
    # exactly-length-3 words: co-convex but not extension-closed
    exact = dset(lambda u: len(u) == 3, stab=4, co_convex=True)
    b = Bar(exact, lambda alpha: 3)
    assert coconvex_bound(b) == 3


def const_bar_spec(tmp_path, k: int) -> str:
    """The co-convex bar of the words of length >= k or with a one, its
    witness const(k): its completion is the zero ray, and the path that
    coconvex-bound reads its bound from is k bits of it."""
    path = tmp_path / f"const{k}.fankit"
    path.write_text(f"s = coconvex(stab(union(len_ge({k}), count_ones_ge(1)), {k}))\n"
                    f"b = bar(s, const({k}))\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("k", [16, 64, 256, 1024])
def test_coconvex_bound_walks_the_ray_once(tmp_path, monkeypatch, k):
    # the walk below the path's first bit meets level k, and that member
    # answers every later bit's question about its 0-child, so the run
    # charges 511 words of claim validation, 4 of the summit's descent
    # and 6 a bit, not a walk down the ray at every bit (k^2/2 words)
    spec = const_bar_spec(tmp_path, k)
    argv = ["coconvex-bound", "--spec", spec, "--bar", "b"]
    monkeypatch.setenv("FANKIT_BUDGET", str(515 + 6 * k))
    code, text = run(argv)
    assert code == 0 and f"\nBOUND={k}\n" in text
    cert = tmp_path / "cert.txt"
    cert.write_text(text, encoding="utf-8")
    assert run(["verify", "--spec", spec, "--cert", str(cert)]) == (0, "VERIFY=OK\n")
    monkeypatch.setenv("FANKIT_BUDGET", str(514 + 6 * k))
    assert run(argv)[0] == 2


def test_coconvex_bound_charges_one_meter(tmp_path, monkeypatch):
    # outside a run the path, its walks and the closing re-check charge
    # one meter, so a library call is refused where the CLI run is, the
    # run having charged 511 words of claim validation before
    spec = const_bar_spec(tmp_path, 16)
    bar = parse_specdoc(Path(spec).read_text(encoding="utf-8")).get_bar("b")
    monkeypatch.setenv("FANKIT_BUDGET", "50")
    with pytest.raises(BudgetExceededError) as err:
        coconvex_bound(bar)
    assert str(err.value) == "descent at level 2: 51 words used, budget 50"
    monkeypatch.setenv("FANKIT_BUDGET", str(50 + 511))
    assert run(["coconvex-bound", "--spec", spec, "--bar", "b"]) == \
        (2, "ERROR=BudgetExceededError: descent at level 2: 562 words used, budget 561\n")


def test_coconvex_bound_accepts_non_minimal_witness():
    b = Bar(len_ge(3), lambda alpha: 5)
    assert coconvex_bound(b) == 5  # sound, just not minimal


def test_wkl_unique_from_fan_uses_per_node_witnesses():
    # a fan oracle that only knows how to ask the bar's own witness
    wit_driven = FanOracle(lambda b: b.query(ZERO), tag="wit-driven")
    t = zero_tree()
    gen = wkl_unique_from_fan(t, wit_driven,
                              bar_wit=lambda node: (lambda alpha: 0))
    assert gen.take(4) == (0, 0, 0, 0)
    assert any("wit-driven" in line for line in gen.trace)


def test_coconvex_bound_preconditions():
    with pytest.raises(PreconditionError):
        coconvex_bound(Bar(len_ge(2)))  # no witness
    not_flagged = Bar(DSet(lambda u: len(u) >= 2, stab=2), lambda a: 2)
    with pytest.raises(PreconditionError):
        coconvex_bound(not_flagged)


def test_bound_agreement_on_random_bars():
    rng = random.Random(1234)
    lpl = lpl_backend(16)
    equal = 0
    total = 40
    for _ in range(total):
        b = random_ext_closed_bar(rng, rng.randrange(0, 7))
        n = fan_from_lpl(b, lpl)
        least = brute_least_uniform_bound(b.carrier.member, 8)
        assert least is not None and n >= least
        equal += int(n == least)
    assert equal >= int(0.9 * total)


def test_coconvex_bound_is_minimal_with_minimal_witness():
    rng = random.Random(4321)
    for _ in range(40):
        b = random_coconvex_bar(rng, rng.randrange(0, 7))
        n = coconvex_bound(b)
        assert n == brute_least_uniform_bound(b.carrier.member, 8)


def test_interior_of_ext_closed_bar_is_itself():
    # closed-set shape of the c-set reduction: interior fixes extension-closed sets
    rng = random.Random(55)
    for _ in range(20):
        b = random_ext_closed_bar(rng, rng.randrange(0, 6))
        inner = interior(b.carrier)
        for n in range(b.carrier.stab + 2):
            for u in iter_level(n):
                assert inner.member(u) == b.carrier.member(u)
