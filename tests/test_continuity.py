"""Query functionals: evaluation, residuals, moduli, and the decidability layer."""

from __future__ import annotations

import random
import tracemalloc

import pytest

from fankit import (Bar, DSet, Leaf, Node, ONE, Seq, ZERO, bar_from_pc,
                    bar_verdict, bound_of, cfan_bound, concat, deco_decide,
                    defu_set_from_functional, defu_via_wkl, dset, eval_traced,
                    eval_word, evaluate, fan_bruteforce, finite_set, full_set,
                    functional_from_bar, functional_from_defu, interior,
                    is_constant, len_ge,
                    llpo_bounded_oracle, materialize, parse_word, path_modulus,
                    pointwise_modulus, query_depth, replay, residual, restrict,
                    uc_bound_bruteforce, uc_via_fan, uniform_bound, union_sets,
                    wkl_oracle_from_llpo)
from fankit.certificate import Certificate, check_uc_bound
from fankit.continuity import least_escape
from fankit.errors import CertificateError, FuelError, PreconditionError
from fankit.specfile import SpecDoc

from bruteforce import (all_words, brute_largest_leaf, brute_least_escape, brute_query_depth,
                        brute_tree_eval, brute_uc_bound, words_at)
from corpus import (random_bar_interior_set, random_functional, random_stabilized_bar,
                    table_member)


def wkl_backend(h=16):
    return wkl_oracle_from_llpo(llpo_bounded_oracle(h))


def test_evaluate_examples():
    assert evaluate(Leaf(5), ZERO) == 5
    assert evaluate(Node(2, Leaf(0), Leaf(1)), ZERO) == 0
    f = Node(0, Leaf(7), Node(1, Leaf(8), Leaf(9)))
    assert evaluate(f, ONE) == 9


def test_eval_word_pads_with_zeros():
    assert eval_word(Leaf(5), ()) == 5
    assert eval_word(Node(2, Leaf(0), Leaf(1)), (1, 1)) == 0
    assert eval_word(Node(0, Leaf(7), Leaf(8)), (1,)) == 8


def test_residual_examples():
    assert residual(Leaf(5), (1, 0)) == Leaf(5)
    assert residual(Node(0, Leaf(7), Leaf(8)), (1,)) == Leaf(8)
    assert residual(Node(2, Leaf(0), Leaf(1)), (1,)) == Node(1, Leaf(0), Leaf(1))


def test_residual_matches_concatenated_evaluation():
    rng = random.Random(31)
    tails = [ZERO, ONE, Seq.periodic((), (1, 0))]
    for _ in range(25):
        f = random_functional(rng, max_index=4)
        for n in range(4):
            for u in words_at(n):
                for tail in tails:
                    assert evaluate(residual(f, u), tail) == evaluate(f, concat(u, tail))


def test_is_constant_examples():
    v = is_constant(Leaf(3))
    assert v.constant and v.value == 3
    v = is_constant(Node(0, Leaf(0), Leaf(0)))
    assert v.constant and v.value == 0
    v = is_constant(Node(1, Leaf(0), Leaf(2)))
    assert not v.constant
    a, b = v.witnesses
    assert restrict(a, 4) == (0, 0, 0, 0)
    assert restrict(b, 4) == (0, 1, 0, 0)
    assert evaluate(Node(1, Leaf(0), Leaf(2)), a) != evaluate(Node(1, Leaf(0), Leaf(2)), b)


def test_is_constant_sees_through_duplicate_queries():
    # the 9 leaf is unreachable: bit 0 is already pinned to 0 on that path
    f = Node(0, Node(0, Leaf(0), Leaf(9)), Leaf(0))
    v = is_constant(f)
    assert v.constant and v.value == 0


def test_pointwise_modulus_examples():
    assert pointwise_modulus(Leaf(9), ZERO) == 0
    assert pointwise_modulus(Node(2, Leaf(0), Leaf(1)), ONE) == 3
    f = Node(0, Leaf(1), Node(3, Leaf(2), Leaf(3)))
    assert pointwise_modulus(f, ONE) == 4
    assert pointwise_modulus(f, ZERO) == 1


def test_modulus_soundness_exhaustive():
    rng = random.Random(17)
    for _ in range(20):
        f = random_functional(rng, max_index=3)
        depth = query_depth(f)
        for u in words_at(depth):
            alpha = concat(u, ZERO)
            m = pointwise_modulus(f, alpha)
            head = restrict(alpha, m)
            for w in all_words(depth - m + 1 if depth >= m else 1):
                beta = concat(head + w, ONE)
                assert evaluate(f, beta) == evaluate(f, alpha)


def test_uc_bound_bruteforce_examples():
    assert uc_bound_bruteforce(Leaf(4)) == 0
    assert uc_bound_bruteforce(Node(2, Leaf(0), Leaf(1))) == 3
    assert uc_bound_bruteforce(Node(0, Leaf(0), Node(1, Leaf(0), Leaf(0)))) == 0


def test_uc_bound_never_exceeds_query_depth():
    rng = random.Random(19)
    for _ in range(30):
        f = random_functional(rng)
        n = uc_bound_bruteforce(f)
        assert n <= query_depth(f)
        assert n == brute_uc_bound(lambda w: eval_word(f, w), query_depth(f))
        for u in words_at(n):
            assert is_constant(residual(f, u)).constant


def test_eval_word_walks_the_word_as_the_padded_sequence():
    rng = random.Random(23)
    for _ in range(40):
        f = random_functional(rng, max_index=4)
        for u in all_words(5):
            assert eval_word(f, u) == evaluate(f, concat(u, ZERO)) == brute_tree_eval(f, u)


def random_uc_trees(rng, count):
    """Random trees with repeated and out-of-order indices; a share of them
    constant (one leaf value), and some whose root is a leaf."""
    for _ in range(count):
        values = rng.choice((1, 2, 5))
        yield random_functional(rng, max_index=rng.randrange(1, 6), leaf_values=values,
                                branch=rng.choice((0.5, 0.65, 0.8)))


def uc_verdicts(f, n):
    doc = SpecDoc(definitions={"f": f})
    return tuple(check_uc_bound(Certificate("uc-bound --fn f", "YES", [("BOUND", str(n))]),
                                doc, "f", via_fan)[0] for via_fan in (False, True))


def test_uc_bound_producer_and_verifier_agree_with_bruteforce():
    rng = random.Random(61)
    seen = set()
    for f in random_uc_trees(rng, 400):
        depth = query_depth(f)
        least = brute_uc_bound(lambda w: brute_tree_eval(f, w), depth)
        assert uc_bound_bruteforce(f) == least, f
        # plain needs the least bound exactly; --via-fan any bound from it on
        assert uc_verdicts(f, least) == (True, True), f
        assert uc_verdicts(f, least + 1) == (False, True), f
        if least > 0:
            assert uc_verdicts(f, least - 1) == (False, False), f
        seen.add(min(least, 2))
    assert seen == {0, 1, 2}


def test_uc_bound_reports_a_nonconstant_word():
    # the verifier names a level-n word below which the values split
    rng = random.Random(67)
    for f in random_uc_trees(rng, 120):
        least = uc_bound_bruteforce(f)
        for n in range(least):
            doc = SpecDoc(definitions={"f": f})
            ok, issues = check_uc_bound(
                Certificate("uc-bound --fn f", "YES", [("BOUND", str(n))]), doc, "f", True)
            u = parse_word(issues[0].split("residual below ", 1)[1].split(" ", 1)[0])
            assert not ok and len(u) == n
            assert len({brute_tree_eval(f, u + w) for w in all_words(query_depth(f))}) > 1


def test_bound_of():
    assert bound_of(Leaf(4)) == 4
    assert bound_of(Node(1, Leaf(2), Leaf(7))) == 7
    assert bound_of(Node(0, Leaf(0), Leaf(0))) == 0


def test_query_depth_and_bound_of_match_a_brute_recursion():
    rng = random.Random(67)
    for _ in range(200):
        f = random_functional(rng, max_index=rng.randrange(0, 7), leaf_values=9)
        assert query_depth(f) == brute_query_depth(f)
        assert bound_of(f) == brute_largest_leaf(f)


def shared_chain(depth):
    """h0 = node(0, leaf(0), leaf(1)), h_i = node(i, h_{i-1}, h_{i-1}): depth
    distinct nodes and two leaves, 2^depth paths."""
    h = Node(0, Leaf(0), Leaf(1))
    for i in range(1, depth):
        h = Node(i, h, h)
    return h


def distinct_nodes(f, seen=None):
    seen = {} if seen is None else seen
    if id(f) not in seen:
        seen[id(f)] = f
        if isinstance(f, Node):
            distinct_nodes(f.low, seen)
            distinct_nodes(f.high, seen)
    return len(seen)


def test_structural_walks_read_shared_nodes_once():
    # recursion over every path did not finish on these
    deep = shared_chain(3000)
    assert (query_depth(deep), bound_of(deep)) == (3000, 1)
    m = path_modulus(shared_chain(40))
    # every path queries bits 39..0, so each node is reached with one
    # largest index: 40 nodes, and leaves 40 for the chain's two leaves
    assert distinct_nodes(m) == 42
    assert (query_depth(m), bound_of(m), evaluate(m, ZERO), evaluate(m, ONE)) == (40, 40, 40, 40)


def test_path_modulus_of_a_shared_tree_is_that_of_its_unfolding():
    def unfold(f):
        if isinstance(f, Leaf):
            return Leaf(f.value)
        return Node(f.index, unfold(f.low), unfold(f.high))

    rng = random.Random(71)
    for _ in range(60):
        pool = [Leaf(rng.randrange(4)) for _ in range(3)]
        for _ in range(rng.randrange(1, 12)):  # later nodes reuse earlier ones
            pool.append(Node(rng.randrange(6), rng.choice(pool), rng.choice(pool)))
        f = pool[-1]
        m = path_modulus(f)
        assert m == path_modulus(unfold(f))
        assert (query_depth(f), bound_of(f)) == (brute_query_depth(f), brute_largest_leaf(f))
        assert distinct_nodes(m) <= distinct_nodes(f) * (query_depth(f) + 1)


def test_bar_from_pc_carrier_and_witness():
    b = bar_from_pc(Leaf(1))
    assert all(b.carrier.member(u) == (len(u) >= 1) for u in all_words(4))
    assert b.query(ZERO) == 1

    b0 = bar_from_pc(Leaf(0))
    assert b0.carrier.member(())
    assert b0.query(ONE) == 0

    f = Node(0, Leaf(0), Leaf(2))
    bf = bar_from_pc(f)
    assert bf.carrier.member((0,))
    assert not bf.carrier.member((1,))
    assert bf.carrier.member((1, 1))


def test_bar_from_pc_is_a_bar():
    rng = random.Random(29)
    for _ in range(20):
        f = random_functional(rng, max_index=3, leaf_values=4)
        b = bar_from_pc(f)
        depth = query_depth(f) + bound_of(f)
        assert bar_verdict(b.carrier, depth).is_yes


def test_functional_from_bar_examples():
    p = functional_from_bar(Bar(len_ge(2)))
    assert evaluate(p, ZERO) == 2 and evaluate(p, ONE) == 2

    root = functional_from_bar(Bar(closure_of_root()))
    assert evaluate(root, ONE) == 0

    mixed = dset(lambda u: (len(u) >= 1 and u[0] == 1) or len(u) >= 3, stab=3)
    p2 = functional_from_bar(Bar(mixed))
    assert evaluate(p2, ONE) == 1
    assert evaluate(p2, ZERO) == 3


def closure_of_root():
    return full_set()


def test_functional_from_bar_is_its_own_modulus():
    mixed = dset(lambda u: (len(u) >= 1 and u[0] == 1) or len(u) >= 3, stab=3)
    p = functional_from_bar(Bar(mixed))
    value, log = eval_traced(p, ZERO)
    assert value == 3
    assert max(i for i, _ in log) + 1 == 3


def test_functional_from_bar_fuel():
    p = functional_from_bar(Bar(finite_set([(1,)])), fuel=6)
    with pytest.raises(FuelError):
        evaluate(p, ZERO)


def test_program_logs_replay_to_same_output():
    mixed = dset(lambda u: (len(u) >= 1 and u[0] == 1) or len(u) >= 3, stab=3)
    programs = [functional_from_bar(Bar(mixed)),
                functional_from_defu(dset(lambda u: u != (1,), stab=2))]
    for p in programs:
        for alpha in (ZERO, ONE, Seq.periodic((), (1, 0))):
            value, log = eval_traced(p, alpha)
            assert replay(p, log) == value
    value, log = eval_traced(programs[0], ZERO)
    with pytest.raises(CertificateError):
        replay(programs[0], log[:-1])  # truncated log cannot answer


def test_uc_via_fan_examples():
    fan = fan_bruteforce(10)
    assert uc_via_fan(Node(2, Leaf(0), Leaf(1)), Leaf(3), fan) == 3
    assert uc_via_fan(Leaf(5), Leaf(0), fan) == 0
    assert uc_via_fan(Node(0, Leaf(1), Leaf(2)), Leaf(1), fan) == 1


def test_uc_via_fan_rejects_false_modulus():
    fan = fan_bruteforce(10)
    with pytest.raises(CertificateError):
        uc_via_fan(Node(0, Leaf(0), Leaf(1)), Leaf(0), fan)
    # a modulus that passes the spot checks but is still too small
    f = Node(0, Leaf(0), Node(4, Node(3, Leaf(1), Leaf(0)), Leaf(1)))
    with pytest.raises(CertificateError, match="residual below 1 is not constant"):
        uc_via_fan(f, Leaf(1), fan)


def test_uc_via_fan_program_route():
    fan = fan_bruteforce(10)
    mixed = dset(lambda u: (len(u) >= 1 and u[0] == 1) or len(u) >= 3, stab=3)
    p = functional_from_bar(Bar(mixed))
    m = materialize(p, depth_cap=8)
    assert uc_via_fan(p, m, fan) == uc_via_fan(m, path_modulus(m), fan)


def test_uc_via_fan_dominates_bruteforce_bound():
    rng = random.Random(37)
    fan = fan_bruteforce(12)
    for _ in range(30):
        f = random_functional(rng)
        n = uc_via_fan(f, path_modulus(f), fan)
        assert n >= uc_bound_bruteforce(f)
        for u in words_at(n):
            assert is_constant(residual(f, u)).constant


def test_deco_examples():
    assert not deco_decide(Leaf(2)).exists
    v = deco_decide(Node(0, Leaf(0), Leaf(1)))
    assert v.exists
    a, b = v.witnesses
    f = Node(0, Leaf(0), Leaf(1))
    assert evaluate(f, a) != evaluate(f, b)
    assert not deco_decide(Node(3, Leaf(4), Leaf(4))).exists


def test_defu_set_examples():
    d = defu_set_from_functional(Leaf(1))
    assert all(d.member(u) for u in all_words(4))

    d2 = defu_set_from_functional(Node(0, Leaf(0), Leaf(1)))
    assert not d2.member(())
    assert d2.member((0,)) and d2.member((1,))

    d3 = defu_set_from_functional(Node(1, Leaf(2), Leaf(2)))
    assert all(d3.member(u) for u in all_words(4))


def test_defu_set_interior_is_a_bar():
    rng = random.Random(41)
    for _ in range(20):
        f = random_functional(rng, max_index=3)
        d = defu_set_from_functional(f)
        assert bar_verdict(interior(d), d.stab + 1).is_yes


def test_functional_from_defu_examples():
    everything = full_set()
    p = functional_from_defu(everything)
    assert evaluate(p, ZERO) == 0 and evaluate(p, ONE) == 0

    d = dset(lambda u: u != (1,), stab=2)
    p2 = functional_from_defu(d)
    assert evaluate(p2, ONE) == 2
    assert evaluate(p2, ZERO) == 0

    d3 = dset(lambda u: len(u) != 1, stab=2)
    p3 = functional_from_defu(d3)
    for alpha in (ZERO, ONE, Seq.periodic((), (0, 1))):
        assert evaluate(p3, alpha) == 2


def test_functional_from_defu_requires_stab():
    with pytest.raises(PreconditionError):
        functional_from_defu(DSet(lambda u: True))


def test_defu_via_wkl_examples():
    wkl = wkl_backend()
    assert not defu_via_wkl(full_set(), wkl).exists

    d = dset(lambda u: u != (1, 0), stab=3)
    v = defu_via_wkl(d, wkl)
    assert v.exists and v.witness == (1, 0)
    assert any(not d.member(u) for u in all_words(3))

    disguised = dset(lambda u: len(u) < 1 or u[0] == u[0], stab=1)
    assert not defu_via_wkl(disguised, wkl).exists


def _set_escaping_at_stab(rng: random.Random, s: int) -> DSet:
    """Stabilized set with a word outside it at level s, and perhaps
    shorter ones: its interior is no bar."""
    table = {u: rng.random() < 0.9 for u in all_words(s)}
    table[tuple(rng.randrange(2) for _ in range(s))] = False
    return DSet(table_member(table, s), stab=s)


def test_defu_against_bruteforce():
    rng = random.Random(61)
    wkl = wkl_backend()
    for k in range(150):
        s = rng.randrange(0, 8)
        bar_interior = k % 3 != 0
        d = random_bar_interior_set(rng, s) if bar_interior else _set_escaping_at_stab(rng, s)
        escape = brute_least_escape(d.member, s)
        assert least_escape(d, s) == escape
        if escape is not None and len(escape) == s:
            # the path runs through an escape at level s, where the
            # interior is d itself, so none of its prefixes is inside
            with pytest.raises(CertificateError, match="the interior is not a bar"):
                defu_via_wkl(d, wkl)
            continue
        try:
            v = defu_via_wkl(d, wkl)
        except CertificateError:
            assert not bar_interior
            continue
        assert v.exists == (escape is not None)
        if v.exists:
            assert not d.member(v.witness) and len(v.witness) == len(escape)


def test_defu_asks_each_word_up_to_the_stab_once():
    asked = []
    d = DSet(lambda u: asked.append(u) or True, stab=10)
    assert not defu_via_wkl(d, wkl_backend()).exists
    assert len(asked) == 2 ** 11 - 1 == len(set(asked))


def test_defu_keeps_a_byte_table_not_a_memo_of_words():
    d = DSet(lambda u: True, stab=14)
    wkl = wkl_backend()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        assert not defu_via_wkl(d, wkl).exists
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cfan_bound_examples():
    fan = fan_bruteforce(8)
    assert cfan_bound(full_set(), fan) == 0

    d = union_sets(len_ge(2), finite_set([()]))
    assert cfan_bound(d, fan) == 2
    inner = interior(d)
    v = uniform_bound(inner, 8)
    assert v.is_yes and v.bound == 2

    nonempty = len_ge(1)
    assert cfan_bound(nonempty, fan) == 1


def test_nonconstancy_roundtrip_on_trees():
    rng = random.Random(43)
    for _ in range(30):
        f = random_functional(rng)
        d = defu_set_from_functional(f)
        truth = any(not d.member(u) for u in all_words(d.stab))
        assert deco_decide(f).exists == truth


def test_nonconstancy_roundtrip_on_sets():
    rng = random.Random(47)
    wkl = wkl_backend()
    for _ in range(30):
        d = random_bar_interior_set(rng, rng.randrange(1, 7))
        escape = any(not d.member(u) for u in all_words(d.stab))
        p = functional_from_defu(d)
        positive = any(eval_word(p, u) > 0 for u in words_at(d.stab))
        assert positive == escape
        assert defu_via_wkl(d, wkl).exists == escape


def test_bar_bound_through_functional_reconstruction():
    rng = random.Random(53)
    for _ in range(25):
        b = random_stabilized_bar(rng, rng.randrange(0, 7))
        f = materialize(functional_from_bar(b), depth_cap=12)
        v = uniform_bound(b.carrier, 10)
        assert v.is_yes and bound_of(f) == v.bound


def test_cfan_matches_constancy_bar_on_functional_sets():
    rng = random.Random(59)
    fan = fan_bruteforce(12)
    for _ in range(25):
        f = random_functional(rng, max_index=4)
        d = defu_set_from_functional(f)
        via_interior = cfan_bound(d, fan)
        constancy = DSet(lambda u, f=f: is_constant(residual(f, u)).constant)
        v = uniform_bound(constancy, 12)
        assert v.is_yes and v.bound == via_interior
