"""Decidable sets: closure, interior, relative sets, bar and convexity checks."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from fankit import (DSet, bar_verdict, closure, complement, complete,
                    convexity_verdict, dset, finite_set, full_set, interior,
                    intersect_sets, iter_level, len_ge, restrict, restrict_set, tree,
                    uniform_bound, union_sets)
from fankit import sets
from fankit._budget import one_meter
from fankit.errors import BudgetExceededError, PreconditionError
from fankit.sets import avoid_descent, descend, validate_claims
from fankit.specfile import SpecError, parse_specdoc

from bruteforce import (all_words, brute_claim_violation, brute_completion,
                        brute_convexity_gap, brute_descent_words, brute_first_escape,
                        brute_interior_member, brute_least_uniform_bound, has_prefix_in,
                        words_at)
from corpus import random_dset
from test_cli import random_set_text


def test_closure_membership():
    a = finite_set([(0,)])
    ab = closure(a)
    assert (0, 1) in ab
    assert (1,) not in ab


def test_closure_of_empty():
    ab = closure(finite_set([]))
    assert all(u not in ab for u in all_words(5))


def test_closure_keeps_coconvexity():
    # outside of {e, (0)}: a co-convex set; its closure stays co-convex
    a = dset(lambda u: u not in ((), (0,)), stab=2, co_convex=True)
    ab = closure(a)
    assert ab.co_convex
    for d in range(7):
        assert convexity_verdict(ab, d, "co-convex").is_yes


def test_restrict_set_at_root_is_identity():
    a = random_dset(random.Random(11), 4)
    a_e = restrict_set(a, ())
    for u in all_words(5):
        assert a.member(u) == a_e.member(u)


def test_restrict_set_below_fixed_bit():
    a = dset(lambda u: len(u) >= 1 and u[0] == 1, stab=1, extension_closed=True)
    a1 = restrict_set(a, (1,))
    assert a1.member(())
    assert all(a1.member(u) for u in all_words(4))


def test_interior_commutes_with_restriction():
    rng = random.Random(23)
    for _ in range(12):
        a = random_dset(rng, 5)
        for n in range(5):
            for u in iter_level(n):
                left = interior(restrict_set(a, u))
                right = restrict_set(interior(a), u)
                for w in all_words(3):
                    expect = brute_interior_member(a.member, a.stab, u + w)
                    assert left.member(w) == expect
                    assert right.member(w) == expect


def test_interior_charges_each_word_it_learns_once(monkeypatch):
    # a stabilizes at 6; from the root, the recursion learns every one of
    # the 63 shorter words, and later questions are answered from the memo
    a = complement(finite_set([(1, 1, 1, 1, 1)]))
    monkeypatch.setenv("FANKIT_BUDGET", "63")
    inner = interior(a)
    assert [inner.member(u) for u in all_words(7)] == \
        [brute_interior_member(a.member, 6, u) for u in all_words(7)]
    monkeypatch.setenv("FANKIT_BUDGET", "62")
    inner = interior(a)
    with pytest.raises(BudgetExceededError):
        inner.member(())
    cells = dict(zip(inner.member_fn.__code__.co_freevars, inner.member_fn.__closure__))
    assert len(cells["memo"].cell_contents) <= 62


def test_interior_examples():
    a = dset(lambda u: len(u) >= 1 and u[0] == 0, stab=1)
    inner = interior(a)
    assert inner.member((0,))
    assert not inner.member(())
    assert not inner.member((1,))

    everything = full_set()
    assert all(interior(everything).member(u) for u in all_words(4))

    b = dset(lambda u: len(u) >= 2 or u == (1,), stab=2)
    ib = interior(b)
    assert not ib.member(())
    assert ib.member((1,))
    assert not ib.member((0,))
    for u in all_words(4):
        assert ib.member(u) == brute_interior_member(b.member, 2, u)


def test_interior_requires_stab():
    with pytest.raises(PreconditionError):
        interior(DSet(lambda u: True))


def test_interior_idempotent():
    rng = random.Random(5)
    for _ in range(20):
        a = random_dset(rng, rng.randrange(0, 6))
        once = interior(a)
        twice = interior(once)
        for u in all_words(a.stab + 2):
            assert once.member(u) == twice.member(u)


def test_interior_means_relative_set_is_full():
    rng = random.Random(7)
    for _ in range(15):
        a = random_dset(rng, 4)
        inner = interior(a)
        for u in all_words(4):
            rel = restrict_set(a, u)
            rel_full = all(rel.member(w) for w in all_words(4 - len(u) + 2))
            assert inner.member(u) == rel_full


def test_bar_verdict_yes():
    v = bar_verdict(len_ge(2), 4)
    assert v.is_yes and v.bound == 2


def test_bar_verdict_no_with_escape():
    v = bar_verdict(finite_set([]), 4)
    assert v.is_no
    assert restrict(v.escape, 6) == (0, 0, 0, 0, 0, 0)


def test_bar_verdict_unknown_without_stab():
    ones_somewhere = DSet(lambda u: any(b == 1 for b in u))
    v = bar_verdict(ones_somewhere, 6)
    assert v.is_unknown and v.depth == 6


def test_uniform_bound_simple():
    v = uniform_bound(len_ge(2), 8)
    assert v.is_yes and v.bound == 2


def test_uniform_bound_mixed_set():
    b = dset(lambda u: (len(u) >= 1 and u[0] == 1) or len(u) >= 3, stab=3)
    assert brute_least_uniform_bound(b.member, 8) == 3
    v = uniform_bound(b, 8)
    assert v.is_yes and v.bound == 3


def test_uniform_bound_unknown():
    v = uniform_bound(finite_set([(1,)]), 7)
    assert v.is_unknown and v.depth == 7


def test_uniform_bound_ext_closed():
    b1 = closure(finite_set([(0,), (1,)]))
    assert uniform_bound(b1, 6).bound == 1
    b2 = closure(finite_set([(0, 0), (0, 1), (1,)]))
    v = uniform_bound(b2, 6)
    assert v.is_yes and v.bound == 2
    assert brute_least_uniform_bound(b2.member, 6) == 2
    b3 = closure(finite_set([]))
    assert uniform_bound(b3, 6).is_unknown


def test_convexity_verdict_examples():
    a = finite_set([(0, 1), (1, 0)])
    assert convexity_verdict(a, 2, "convex").is_yes

    b = finite_set([(0, 0), (1, 1)])
    v = convexity_verdict(b, 2, "convex")
    assert v.is_no
    assert v.witness == ((0, 0), (0, 1), (1, 1))

    c = len_ge(3)
    assert convexity_verdict(c, 5, "co-convex").is_yes


def test_convexity_verdict_matches_bruteforce():
    rng = random.Random(211)
    found = Counter()
    for _ in range(150):
        a = random_dset(rng, rng.randrange(0, 6), density=rng.choice((0.1, 0.5, 0.9)))
        depth = rng.randrange(0, 7)
        for mode, member in (("convex", a.member), ("co-convex", lambda u: not a.member(u))):
            v = convexity_verdict(a, depth, mode)
            gap = brute_convexity_gap(member, depth)
            found[gap is None] += 1
            assert (v.is_yes, v.witness) == ((True, None) if gap is None else (False, gap))
    assert min(found.values()) > 50  # both answers are common


def test_closure_suite_on_random_sets():
    rng = random.Random(101)
    for _ in range(60):
        b = random_dset(rng, rng.randrange(0, 7))
        bb = closure(b)
        for u in all_words(6):
            if b.member(u):
                assert bb.member(u)  # the set sits inside its closure
            if bb.member(u):
                assert bb.member(u + (0,)) and bb.member(u + (1,))
        v_b = bar_verdict(b, 6)
        if v_b.is_yes:
            v_bb = bar_verdict(bb, 6)
            assert v_bb.is_yes and v_bb.bound <= v_b.bound
        u_bb = uniform_bound(bb, 6)
        if u_bb.is_yes:
            u_b = uniform_bound(b, 6)
            assert u_b.is_yes and u_b.bound <= u_bb.bound


def test_uniform_bound_implies_bar():
    rng = random.Random(303)
    for _ in range(40):
        b = random_dset(rng, rng.randrange(0, 6))
        ub = uniform_bound(b, 6)
        if ub.is_yes:
            bv = bar_verdict(b, 6)
            assert bv.is_yes and bv.bound <= ub.bound


def test_flag_validation_catches_lies():
    with pytest.raises(PreconditionError):
        dset(lambda u: len(u) == 1, extension_closed=True)
    with pytest.raises(PreconditionError):
        dset(lambda u: len(u) <= 1, stab=1)
    with pytest.raises(PreconditionError):
        dset(lambda u: u in ((0, 0), (1, 1)), convex=True)


CLAIM_WRAPPERS = {
    "stab({x}, {k})": "stab",
    "ext_closed({x})": "extension_closed",
    "restr_closed({x})": "restriction_closed",
    "convex({x})": "convex",
    "coconvex({x})": "co_convex",
}
CLAIM_FIELDS = ("stab", "extension_closed", "restriction_closed", "convex", "co_convex")


def declared(ds: DSet) -> dict:
    return {name: getattr(ds, name) for name in CLAIM_FIELDS}


def test_claim_validation_agrees_with_bruteforce():
    # Random definition files wrap a set in one or two claims, some true
    # and some lies; each wrapper is validated as it is parsed, inner first.
    rng = random.Random(811)
    outcomes = Counter()
    for _ in range(300):
        base = random_set_text(rng)
        b = parse_specdoc(f"b = {base}\n").get_set("b")
        claims = declared(b)
        expected = None
        text = "b"
        for _ in range(rng.randrange(1, 3)):
            wrapper = rng.choice(list(CLAIM_WRAPPERS))
            k = rng.randrange(0, 10)
            text = wrapper.format(x=text, k=k)
            claims[CLAIM_WRAPPERS[wrapper]] = k if wrapper.startswith("stab") else True
            expected = expected or brute_claim_violation(b.member, claims, 8)
        spec = f"b = {base}\ns = {text}\n"
        if expected is None:
            parse_specdoc(spec)
        else:
            with pytest.raises(SpecError) as err:
                parse_specdoc(spec)
            assert err.value.line == 2 and str(err.value).split(": ", 1)[1] == expected, spec
        outcomes[expected.split(" ", 1)[0] if expected else "accepted"] += 1
    # random truth tables under random claims, at other horizons
    for _ in range(300):
        s = rng.randrange(0, 6)
        ds = random_dset(rng, s, density=rng.choice((0.1, 0.5, 0.9)))
        claims = {name: rng.random() < 0.4 for name in CLAIM_FIELDS[1:]}
        claims["stab"] = rng.choice((None, s, rng.randrange(-1, 8)))
        horizon = rng.randrange(0, 8)
        expected = brute_claim_violation(ds.member, claims, horizon)
        if expected is None:
            validate_claims(DSet(ds.member_fn, **claims), horizon)
        else:
            with pytest.raises(PreconditionError) as err:
                validate_claims(DSet(ds.member_fn, **claims), horizon)
            assert str(err.value) == expected
        outcomes[expected.split(" ", 1)[0] if expected else "accepted"] += 1
    # both outcomes, and a failure of every claim, were seen
    assert outcomes["accepted"] >= 50, outcomes
    assert {"stab", "extension-closed", "restriction-closed", "convex",
            "co-convex"} <= {key.split("=")[0] for key in outcomes}, outcomes


def test_claim_validation_tests_each_base_word_once():
    rng = random.Random(812)
    for _ in range(40):
        s = rng.randrange(0, 6)
        table = random_dset(rng, s)
        calls = Counter()

        def base(u):
            calls[u] += 1
            return table.member(u)

        flags = {name: rng.random() < 0.5 for name in CLAIM_FIELDS[2:]}
        for ds in (DSet(base, stab=s, extension_closed=rng.random() < 0.5, **flags),
                   # a closure asks its base about prefixes of the word asked
                   DSet(closure(DSet(base)).member_fn, stab=s, extension_closed=True,
                        **flags)):
            calls.clear()
            try:
                validate_claims(ds)
            except PreconditionError:
                pass
            assert set(calls) <= set(all_words(8))
            assert max(calls.values()) == 1, calls.most_common(3)
    # true claims are checked against every word up to the horizon
    calls = Counter()
    validate_claims(DSet(lambda u: calls.update([u]) or True, stab=0, extension_closed=True,
                         restriction_closed=True, convex=True, co_convex=True))
    assert calls == Counter(all_words(8))


def test_each_spec_line_asks_membership_once(monkeypatch):
    # a wrapper around a validated set checks only the claim it adds, on
    # the table of levels its inner line already built: one table a line,
    # from the level evaluators of a spec-built set, which asks no word,
    # or asking the words of an interior, which has no evaluator
    calls, tables = Counter(), []
    member, level_rows = DSet.member, sets.level_rows

    def counting(self, u):
        calls[u] += 1
        return member(self, u)

    def counting_rows(ds, *args):
        tables.append(ds.member_fn)
        return level_rows(ds, *args)

    monkeypatch.setattr(DSet, "member", counting)
    monkeypatch.setattr(sets, "level_rows", counting_rows)
    for inner, k, asks in (("stab(union(len_ge(2), count_ones_ge(1)), 2)", 2, False),
                           ("stab(interior(len_ge(2)), 3)", 3, True)):
        counts = []
        for line in (f"s = {inner}", f"b = bar(coconvex({inner}), const(2))",
                     f"c = ext_closed(coconvex(stab({inner}, {k})))"):
            calls.clear()
            tables.clear()
            parse_specdoc(line + "\n")
            counts.append(sum(calls.values()))
            assert len(tables) == 1, line
        assert (counts[0] > 0) == asks and counts == counts[:1] * 3, counts
    # a set restriction-closed by construction is not validated again by tree
    calls.clear()
    tables.clear()
    parse_specdoc("t = tree(complement(closure(finite(10))))\n")
    assert not calls and not tables


def random_spec_set(rng, depth=0):
    """A random set expression over every set constructor of definition
    files, claim wrappers and interior included; some of the claims are
    false, and some interiors lack the stab they need."""
    word = lambda: "".join(rng.choice("01") for _ in range(rng.randrange(0, 13))) or "e"
    if depth >= 3 or rng.random() < 0.3:
        return rng.choice((
            lambda: f"len_ge({rng.randrange(0, 13)})",
            lambda: f"bit({rng.randrange(0, 13)}, {rng.randrange(2)})",
            lambda: f"count_ones_ge({rng.randrange(0, 14)})",
            lambda: f"prefix({word()})",
            lambda: f"finite({', '.join(word() for _ in range(rng.randrange(1, 4)))})"))()
    inner = lambda: random_spec_set(rng, depth + 1)
    return rng.choice((
        lambda: f"union({inner()}, {inner()})",
        lambda: f"intersect({inner()}, {inner()})",
        lambda: f"complement({inner()})",
        lambda: f"closure({inner()})",
        lambda: f"closure(closure({inner()}))",
        lambda: f"complement(closure({inner()}))",
        lambda: f"interior({inner()})",
        lambda: f"stab({inner()}, {rng.randrange(0, 14)})",
        lambda: f"{rng.choice(('ext_closed', 'restr_closed', 'convex', 'coconvex', 'tree'))}"
                f"({inner()})",
        lambda: f"tree(complement(closure({inner()})))",
        lambda: f"bar({inner()}, const(2))"))()


def brute_rows(member, depth):
    """Each level's members as a mask: bit v is the v-th word in lex order."""
    return [sum(1 << v for v, u in enumerate(words_at(n)) if member(u))
            for n in range(depth + 1)]


def test_level_evaluators_match_membership():
    rng = random.Random(1616)
    seen, kinds = Counter(), Counter()
    fixed = ["finite(e, 0110)", "count_ones_ge(11)", "bit(10, 1)", "prefix(0110100101011)",
             "closure(closure(finite(01, 1)))", "complement(closure(bit(1, 0)))",
             "stab(complement(closure(prefix(10))), 2)", "coconvex(len_ge(4))",
             "tree(complement(closure(finite(101))))", "bar(len_ge(3), const(3))"]
    while seen["spec"] < 160:
        text = fixed.pop() if fixed else random_spec_set(rng)
        try:
            ds = parse_specdoc(f"x = {text}\n").get_set("x")
        except SpecError:
            seen["refused"] += 1
            continue
        seen["spec"] += 1
        for name in ("closure(closure", "complement(closure", "stab(", "tree(", "bar(",
                     "count_ones_ge", "finite", "interior"):
            kinds[name] += name in text
        # every constructor has a level evaluator but interior
        assert (ds.levels_fn is None) == ("interior" in text), text
        want = brute_rows(ds.member, 10)
        assert sets.level_rows(ds, 10) == want, text
        start = rng.randrange(0, 11)
        assert sets.level_rows(ds, 10, start) == want[start:], text
    assert seen["refused"] > 5 and min(kinds.values()) > 5, (seen, kinds)
    # an opaque library set has no evaluator, and neither has a union or a
    # closure over one: they fall back to asking membership
    opaque = DSet(lambda u: sum(u) % 3 == 1)
    for ds in (opaque, union_sets(len_ge(2), opaque), closure(opaque),
               closure(union_sets(opaque, finite_set([(1, 1)])))):
        assert ds.levels_fn is None
        assert sets.level_rows(ds, 10) == brute_rows(ds.member, 10)


def test_convexity_verdict_on_spec_built_sets_matches_bruteforce():
    rng = random.Random(1617)
    found = Counter()
    while sum(found.values()) < 400:
        try:
            a = parse_specdoc(f"x = {random_spec_set(rng)}\n").get_set("x")
        except SpecError:
            continue
        depth = rng.randrange(0, 9)
        for mode, member in (("convex", a.member), ("co-convex", lambda u: not a.member(u))):
            v = convexity_verdict(a, depth, mode)
            gap = brute_convexity_gap(member, depth)
            found[gap is None] += 1
            assert (v.is_yes, v.witness) == ((True, None) if gap is None else (False, gap))
    assert min(found.values()) > 30, found


def test_convexity_charges_each_level_before_reading_it(monkeypatch):
    # convexity charges each level just before it reads it, so a gap at
    # level 2 answers at a depth whose full scan the budget would refuse;
    # the levels share one meter, so levels 0..3 (15 words) are refused
    monkeypatch.setenv("FANKIT_BUDGET", "8")
    for a in (finite_set([(0, 0), (1, 1)]), DSet(finite_set([(0, 0), (1, 1)]).member_fn)):
        assert convexity_verdict(a, 10 ** 6).witness == ((0, 0), (0, 1), (1, 1))
        with pytest.raises(BudgetExceededError,
                           match="^level enumeration at level 3: 15 words used, budget 8$"):
            convexity_verdict(complement(a), 10 ** 6)


def test_one_convexity_call_charges_one_meter(monkeypatch):
    monkeypatch.setenv("FANKIT_BUDGET", "100")
    full = DSet(lambda u: True)
    assert convexity_verdict(full, 5).is_yes  # levels 0..5: 63 words
    with pytest.raises(BudgetExceededError) as refused:
        convexity_verdict(full, 6)
    assert str(refused.value) == "level enumeration at level 6: 127 words used, budget 100"
    with one_meter():  # inside a run the call charges the run's meter
        with pytest.raises(BudgetExceededError,
                           match="^level enumeration at level 6: 127 words used"):
            convexity_verdict(full, 6)


def test_stab_propagation():
    a = len_ge(3)
    b = union_sets(a, finite_set([(1,)]))
    assert b.stab == 3
    assert restrict_set(a, (0, 1)).stab == 1
    assert complement(a).stab == 3
    assert closure(b).stab == 3


# ---------------------------------------------------------------------------
# Membership functions may answer any truth value, not only a bool.

def _opaque(rng, truth):
    """A membership function answering, for each word, a truth value that
    is not a bool and stands for truth's answer."""
    answer = {u: rng.choice((1, "yes") if t else (0, None, "")) for u, t in truth.items()}
    return answer.__getitem__


def _assert_reads_as(ds, want, depth):
    """ds's members, descent and avoid descent are want's, by brute force."""
    for u in all_words(depth):
        got = ds.member(u)
        assert type(got) is bool and got == want(u), u
    assert list(descend(ds.member_fn, depth)) == \
        [u for u in brute_descent_words(want, depth) if want(u)]
    escape = brute_first_escape(want, depth)
    top = depth if escape is not None else brute_least_uniform_bound(want, depth) - 1
    assert avoid_descent(ds, depth) == (top, escape)


def test_combinators_read_opaque_truth_values():
    rng = random.Random(1903)
    depth = 6
    for _ in range(30):
        ta, tb = ({u: rng.random() < p for u in all_words(depth)}
                  for p in (rng.random(), rng.random()))
        a, b = DSet(_opaque(rng, ta)), DSet(_opaque(rng, tb))
        ina, inb = ta.__getitem__, tb.__getitem__
        _assert_reads_as(union_sets(a, b), lambda u: ina(u) or inb(u), depth)
        _assert_reads_as(intersect_sets(a, b), lambda u: ina(u) and inb(u), depth)
        _assert_reads_as(complement(a), lambda u: not ina(u), depth)
        _assert_reads_as(closure(a), lambda u: has_prefix_in(ina, u), depth)
        _assert_reads_as(complement(closure(intersect_sets(a, complement(b)))),
                         lambda u: not has_prefix_in(lambda w: ina(w) and not inb(w), u),
                         depth)


def test_completion_reads_opaque_truth_values():
    rng = random.Random(1904)
    depth = 8
    for _ in range(30):
        s = rng.randrange(0, 5)
        inside = {u: False for u in all_words(depth)}
        for u in all_words(s - 1):  # a random finite tree, parents first
            inside[u] = (not u or inside[u[:-1]]) and rng.random() < 0.7
        t = tree(DSet(_opaque(rng, inside), stab=s), validate=False)
        _assert_reads_as(complete(t), brute_completion(inside.__getitem__, s), depth)
