"""The pruned descent and everything built on it, checked against
tests/bruteforce.py on seeded random definition files, plus the visit
metering of its budget."""

from __future__ import annotations

import contextvars
import random
import sys
import tracemalloc

import pytest

from fankit import (DSet, bar_verdict, closure, complement, complete, finite_set,
                    full_set, has_prefix, is_infinite_to, is_summit, least_uniform_bound,
                    len_ge, members_at, restrict, survivor_width, tree, uniform_bound,
                    union_sets)
from fankit import sets, trees
from fankit._budget import MAX_SCAN_DEPTH, RUN_METER, Meter
from fankit.errors import BudgetExceededError, PreconditionError
from fankit.sets import avoid_descent, avoid_height, descend, descent_height
from fankit.specfile import SpecError, parse_specdoc
from fankit.trees import level_listing, tree_levels
from fankit.words import format_word

from bruteforce import (all_words, brute_completion, brute_descent_charges,
                        brute_descent_words, brute_first_escape, brute_least_empty_level,
                        brute_least_uniform_bound, brute_level_members, brute_metered,
                        brute_summit, has_prefix_in)
from test_cli import random_set_text, random_word_text
from test_sets import random_spec_set


def random_sets(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield parse_specdoc(f"s = {random_set_text(rng)}\n").get_set("s")


TREE_POOL = [
    "tree(complement(closure(finite({ws}))))",
    "tree(finite(e, {x}, {x}{y}))",
    "tree(intersect(complement(closure(finite({ws}))), complement(len_ge({k}))))",
    "tree(union(complement(len_ge({k})), complement(count_ones_ge(1))))",
]


def random_trees(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        ws = ", ".join(random_word_text(rng) for _ in range(rng.randrange(1, 4)))
        text = rng.choice(TREE_POOL).format(ws=ws, x=rng.choice("01"), y=rng.choice("01"),
                                            k=rng.randrange(0, 6))
        yield parse_specdoc(f"t = {text}\n").get_tree("t")


# ---------------------------------------------------------------------------
# The primitive.

def test_descend_is_preorder_over_kept_words():
    assert list(descend(lambda u: True, 3)) == sorted(all_words(3))
    keep = lambda u: not any(u[1:])  # noqa: E731  the two rays 0000... and 1000...
    assert list(descend(keep, 3)) == [(), (0,), (0, 0), (0, 0, 0), (1,), (1, 0), (1, 0, 0)]
    assert list(descend(lambda u: False, 5)) == []
    # a word is kept only when every prefix is
    assert list(descend(lambda u: u != (0,), 2)) == [(), (1,), (1, 0), (1, 1)]


@pytest.mark.parametrize("keep, depth, visits", [
    (lambda u: True, 5, 2 ** 6 - 1),        # a full level n costs about 2^(n+1)
    (lambda u: not any(u), 40, 1 + 2 * 40),  # the zero ray costs its width per level
])
def test_descend_charges_each_tested_word(monkeypatch, keep, depth, visits):
    monkeypatch.setenv("FANKIT_BUDGET", str(visits))
    assert len(list(descend(keep, depth))) > depth
    monkeypatch.setenv("FANKIT_BUDGET", str(visits - 1))
    with pytest.raises(BudgetExceededError):
        list(descend(keep, depth))


def test_descend_builds_no_word_past_the_depth_cap():
    ray = lambda u: not any(u)  # noqa: E731
    assert descent_height(ray, MAX_SCAN_DEPTH) == (MAX_SCAN_DEPTH, (0,) * MAX_SCAN_DEPTH)
    with pytest.raises(BudgetExceededError):
        descent_height(ray, MAX_SCAN_DEPTH + 1)
    # a walk that ends early never meets the cap
    assert descent_height(lambda u: len(u) < 3, 10 * MAX_SCAN_DEPTH) == (2, None)
    # but a level listing that deep is refused before it is built
    root = tree(finite_set([()]), validate=False)
    assert len(tree_levels(root, MAX_SCAN_DEPTH)) == MAX_SCAN_DEPTH + 1
    with pytest.raises(BudgetExceededError):
        tree_levels(root, MAX_SCAN_DEPTH + 1)


def test_avoid_height_stops_at_the_first_escape():
    tested = []
    b = DSet(lambda u: tested.append(u) or False)  # the empty set
    assert avoid_height(b, 30) == (30, (0,) * 30)
    assert len(tested) == 31  # straight down the zero ray


# ---------------------------------------------------------------------------
# Bars: least bounds and escapes.

def test_least_uniform_bound_agrees_with_bruteforce():
    for s in random_sets(501, 150):
        for max_n in range(7):
            assert least_uniform_bound(s, max_n) == \
                brute_least_uniform_bound(s.member, max_n)


def test_bar_verdict_agrees_with_bruteforce():
    for s in random_sets(502, 150):
        for depth in range(7):
            v = bar_verdict(s, depth)
            least = brute_least_uniform_bound(s.member, depth)
            if least is not None:
                assert v.is_yes and v.bound == least
            elif s.stab is not None and s.stab <= depth:
                assert v.is_no
                # the lex-first level-stab avoider, continued by zeros
                assert restrict(v.escape, s.stab) == brute_first_escape(s.member, s.stab)
                assert restrict(v.escape, depth) == brute_first_escape(s.member, depth)
            else:
                assert v.is_unknown and v.depth == depth


def test_closure_memo_is_order_independent():
    rng = random.Random(503)
    for a in random_sets(504, 120):
        w = tuple(rng.randrange(2) for _ in range(rng.randrange(8, 24)))
        prefixes = [w[:k] for k in range(len(w) + 1)]
        expected = {u: has_prefix_in(a.member, u) for u in prefixes}
        long_first = closure(a)
        assert long_first.member(w) == expected[w]
        assert all(long_first.member(u) == expected[u] for u in prefixes)
        short_first = closure(a)
        assert all(short_first.member(u) == expected[u] for u in prefixes)
        assert short_first.member(w) == expected[w]
        shuffled = closure(a)
        order = prefixes[:]
        rng.shuffle(order)
        assert all(shuffled.member(u) == expected[u] for u in order)


def test_closure_keeps_only_the_last_path():
    # the avoid tree of the closure of the words of length >= 14 is full
    # to depth 13: 32767 words asked about, each of which tests the base
    # set once, and none of which may stay behind
    calls = 0

    def long(u):
        nonlocal calls
        calls += 1
        return len(u) >= 14

    b = closure(DSet(long))
    tracemalloc.start()
    try:
        assert least_uniform_bound(b, 20) == 14
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls == 2 ** 15 - 1
    assert peak < 100_000, peak


def test_closure_memo_does_not_recurse():
    n = sys.getrecursionlimit() + 100
    assert not closure(finite_set([])).member((0,) * n)
    assert closure(finite_set([(1,) * 3])).member((1,) * n)


# ---------------------------------------------------------------------------
# Trees: levels, infinity, summit and completion.

def test_levels_agree_with_bruteforce():
    for t in random_trees(505, 80):
        levels = tree_levels(t, 7)
        for k in range(8):
            expected = brute_level_members(t.member, k)
            assert levels[k] == expected
            assert members_at(t, k) == expected


def test_is_infinite_to_agrees_with_bruteforce():
    for t in random_trees(506, 80):
        for depth in range(8):
            v = is_infinite_to(t, depth)
            empty = brute_least_empty_level(t.member, depth)
            if empty is None:
                assert v.is_yes and v.bound == depth
            else:
                assert v.is_no and v.bound == empty


def test_summit_and_completion_agree_with_bruteforce():
    checked = 0
    for t in random_trees(507, 80):
        if t.stab is None:
            continue
        checked += 1
        head = brute_summit(t.member, t.stab)
        for u in all_words(t.stab):
            assert is_summit(t, u) == (u == head)
        reference = brute_completion(t.member, t.stab)
        tc = complete(t)
        for u in all_words(8):
            assert tc.member(u) == reference(u)
    assert checked > 40


# ---------------------------------------------------------------------------
# The budget meters visits, not a 2^n worst case.

def test_thin_tree_levels_cost_their_width(monkeypatch):
    # the listing holds 41 words of 820 bits in all, far below 2^41
    monkeypatch.setenv("FANKIT_BUDGET", "1024")
    t = tree(finite_set([(), (1,), (1, 0)]), validate=False)
    levels = tree_levels(complete(t), 40)
    assert levels == [[()], [(1,)]] + [[(1, 0) + (0,) * (k - 2)] for k in range(2, 41)]


def test_a_library_listing_is_charged_by_its_bits(monkeypatch):
    # the descent goes down the zero ray first, so the listed words are
    # about 1024 bits long, 8 KB each as tuples: charged by their bits,
    # they stay within the budget's memory
    monkeypatch.setenv("FANKIT_BUDGET", "16384")
    t = tree(complement(closure(finite_set([(1,)]))), validate=False)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="^level listing at level "):
            tree_levels(t, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_a_library_listing_charges_one_meter(monkeypatch):
    # outside a run the descent and the listing charge one meter, as they
    # do inside a run, where the run's meter is set
    monkeypatch.setenv("FANKIT_BUDGET", "700")
    t = tree(full_set(), validate=False)

    def refusal():
        with pytest.raises(BudgetExceededError) as err:
            tree_levels(t, 6)
        return str(err.value)

    def in_a_run():
        RUN_METER.set(Meter())
        return refusal()

    assert refusal() == contextvars.copy_context().run(in_a_run) == \
        "level listing at level 6: 704 words used, budget 700"


def test_survivor_width_charges_one_meter(monkeypatch):
    # outside a run, the listing of level k and the survival walks below
    # its members charge one meter, as they do inside a run
    monkeypatch.setenv("FANKIT_BUDGET", "300")
    t = tree(complement(len_ge(8)), validate=False)

    def refusal():
        with pytest.raises(BudgetExceededError) as err:
            survivor_width(t, 4, 8)
        return str(err.value)

    def in_a_run():
        RUN_METER.set(Meter())
        return refusal()

    assert refusal() == contextvars.copy_context().run(in_a_run) == \
        "descent at level 5: 301 words used, budget 300"


def test_full_tree_levels_still_exceed_the_budget(monkeypatch):
    monkeypatch.setenv("FANKIT_BUDGET", "1024")
    with pytest.raises(BudgetExceededError):
        tree_levels(complete(tree(full_set(), validate=False)), 12)


# ---------------------------------------------------------------------------
# The level route: avoid_height and level_listing read whole levels as masks
# where they can, and must answer, charge and refuse as the descent does.

def _charged(scan, *args):
    """scan(*args), or the text of its refusal, and the words it charged,
    in a run of its own."""
    def go():
        RUN_METER.set(Meter())
        try:
            got = scan(*args)
        except (BudgetExceededError, PreconditionError) as exc:
            got = f"{type(exc).__name__}: {exc}"
        return got, RUN_METER.get().used
    return contextvars.copy_context().run(go)


def _recorded(ds, pulled):
    """ds with a level evaluator that notes in pulled each level it yields."""
    def levels(depth):
        for n, row in enumerate(ds.levels_fn(depth)):
            pulled.append(n)
            yield row
    return ds.replace(levels_fn=levels)


def _kept_per_level(keep, depth):
    """How many words the descent keeps at each level 0..depth."""
    def go():
        RUN_METER.set(Meter())
        counts = [0] * (depth + 1)
        for u in descend(keep, depth):
            counts[len(u)] += 1
        return counts
    return contextvars.copy_context().run(go)


def _assert_masks_narrow(pulled, keep, depth):
    """No level was built as a mask wider than 64 times the words the
    descent visits there: the root, or both children of each kept word
    one level up."""
    kept = _kept_per_level(keep, depth)
    for n in pulled:
        assert n == 0 or 1 << n <= 64 * 2 * kept[n - 1], (n, kept)


def _descent_listing(t, depth):
    levels = tree_levels(complete(t), depth)
    return [f"{k}:{' '.join(map(format_word, level))}" for k, level in enumerate(levels)]


def _budgets(rng, used):
    """Budgets 1-5000, the descent's exact charge and one word less, and the default."""
    budgets = {rng.randrange(1, 5001), rng.randrange(1, 200), used - 1, used}
    return sorted(budget for budget in budgets if budget > 0) + [None]


def _route_counter(monkeypatch, module):
    """Counts of level_descent's answers as seen by module: [fell back, masks]."""
    counts = [0, 0]
    primitive = sets.level_descent

    def counted(*args):
        got = primitive(*args)
        counts[got is not None] += 1
        return got
    monkeypatch.setattr(module, "level_descent", counted)
    return counts


def test_avoid_height_by_levels_matches_the_descent(monkeypatch):
    rng = random.Random(1801)
    routes = _route_counter(monkeypatch, sets)
    cases = 0
    while cases < 120:
        text = random_spec_set(rng)
        try:
            b = parse_specdoc(f"b = {text}\n").get_set("b")
        except SpecError:
            continue
        cases += 1
        depth = rng.randrange(0, 17)
        pulled = []
        if b.levels_fn is not None:
            b = _recorded(b, pulled)
        monkeypatch.delenv("FANKIT_BUDGET", raising=False)
        for budget in _budgets(rng, _charged(avoid_descent, b, depth)[1]):
            if budget is None:
                monkeypatch.delenv("FANKIT_BUDGET", raising=False)
            else:
                monkeypatch.setenv("FANKIT_BUDGET", str(budget))
            assert _charged(avoid_height, b, depth) == _charged(avoid_descent, b, depth), \
                (text, depth, budget)
        _assert_masks_narrow(pulled, lambda u: not b.member(u), depth)
    assert routes[1] > 150 and routes[0] > 50, routes


def test_level_listing_by_levels_matches_the_descent(monkeypatch):
    rng = random.Random(1802)
    routes = _route_counter(monkeypatch, trees)
    texts = [f"tree(complement(closure({random_spec_set(rng)})))" for _ in range(40)]
    texts += ["tree(finite(e, 0, 01, 011))", "tree(finite())", "tree(finite(e))",
              "tree(complement(closure(count_ones_ge(3))))"]
    ray = 0
    for text in texts:
        try:
            t = parse_specdoc(f"t = {text}\n").get_tree("t")
        except SpecError:
            continue
        depth = rng.randrange(0, 17)
        pulled = []
        if t.levels_fn is not None:
            t = _recorded(t, pulled)
        ray += t.stab is not None and complete(t) is not t
        monkeypatch.delenv("FANKIT_BUDGET", raising=False)
        for budget in _budgets(rng, _charged(_descent_listing, t, depth)[1]):
            if budget is None:
                monkeypatch.delenv("FANKIT_BUDGET", raising=False)
            else:
                monkeypatch.setenv("FANKIT_BUDGET", str(budget))
            assert _charged(level_listing, t, depth) == _charged(_descent_listing, t, depth), \
                (text, depth, budget)
        if t.stab is not None:
            _assert_masks_narrow(pulled, complete(t).member, depth)
    for t in random_trees(1803, 20):  # finite trees among them, completed by a ray
        depth = rng.randrange(0, 17)
        assert _charged(level_listing, t, depth) == _charged(_descent_listing, t, depth)
    assert ray > 5 and routes[1] > 40 and routes[0] > 20, (ray, routes)


def test_thin_scans_fall_back_to_the_descent(monkeypatch):
    # a thin avoid tree visits two words a level, so only levels up to 7
    # (2^7 bits for 2 words) are ever built as masks; the descent answers
    routes = _route_counter(monkeypatch, sets)
    pulled = []
    b = _recorded(parse_specdoc("b = union(len_ge(40), count_ones_ge(1))\n").get_set("b"),
                  pulled)
    got, used = _charged(uniform_bound, b, 45)
    assert got.bound == 40 and used == 1 + 2 * 40
    assert routes == [1, 0] and max(pulled) == 7
    # a thin completion 200 levels deep: the listing is the descent's too
    routes = _route_counter(monkeypatch, trees)
    pulled = []
    t = _recorded(parse_specdoc("t = tree(finite(e, 1, 10))\n").get_tree("t"), pulled)
    listing, used = _charged(level_listing, t, 200)
    assert listing == ["0:e", "1:1"] + [f"{k}:1{'0' * (k - 1)}" for k in range(2, 201)]
    assert (listing, used) == _charged(_descent_listing, t, 200)
    assert routes == [1, 0] and max(pulled) == 7


def test_a_wide_level_is_rendered_from_its_mask(monkeypatch):
    # a 4096-bit level (depth 12) listed from masks: only binary
    # conversions, so PYTHONINTMAXSTRDIGITS cannot refuse it
    routes = _route_counter(monkeypatch, trees)
    t = parse_specdoc("t = tree(complement(closure(finite(101))))\n").get_tree("t")
    listing = level_listing(t, 12)
    assert routes == [0, 1]
    for k, line in enumerate(listing):
        words = brute_level_members(lambda u: not has_prefix_in(lambda w: w == (1, 0, 1), u), k)
        assert line == f"{k}:{' '.join(map(format_word, words))}"
    assert len(listing[12].split()) == 4096 - 4096 // 8


def test_avoid_height_refuses_from_the_masks_as_the_descent_does(monkeypatch):
    # past the budget, the level route names the level of the descent's
    # first word past it, read from the masks: membership is never asked
    rng = random.Random(1901)
    from_masks = 0
    while from_masks < 60:
        monkeypatch.delenv("FANKIT_BUDGET", raising=False)
        text = random_spec_set(rng)
        try:
            b = parse_specdoc(f"b = {text}\n").get_set("b")
        except SpecError:
            continue
        depth = rng.randrange(0, 17)
        used = _charged(avoid_descent, b, depth)[1]
        if b.levels_fn is None or used < 2:
            continue
        asked = []
        member = b.member_fn
        counted = b.replace(member_fn=lambda u: asked.append(u) or member(u))
        for budget in {1, rng.randrange(1, used), used - 1}:
            monkeypatch.setenv("FANKIT_BUDGET", str(budget))
            masks = sets.level_descent(b, depth, False, budget) is not None
            asked.clear()
            got = _charged(avoid_height, counted, depth)
            assert got[0].startswith("BudgetExceededError: descent at level ")
            assert got == _charged(avoid_descent, b, depth), (text, depth, budget)
            assert not (masks and asked), (text, depth, budget)
            from_masks += masks


def test_an_over_budget_scan_is_refused_without_its_walk(monkeypatch):
    # the descent would test 1,048,577 words before its refusal
    monkeypatch.delenv("FANKIT_BUDGET", raising=False)
    asked = []
    b = parse_specdoc("s = closure(union(len_ge(21), prefix(111)))\n").get_set("s")
    member = b.member_fn
    b = b.replace(member_fn=lambda u: asked.append(u) or member(u))
    assert _charged(uniform_bound, b, 22) == (
        "BudgetExceededError: descent at level 21: 1048577 words used, budget 1048576",
        1048577)
    assert not asked


# ---------------------------------------------------------------------------
# The charge written out in descend and tree_levels: the words used and the
# refusals are those of a reference count of the preorder visits.

def test_descent_charges_match_the_reference_count(monkeypatch):
    rng = random.Random(1902)
    for _ in range(30):
        monkeypatch.delenv("FANKIT_BUDGET", raising=False)
        depth = rng.randrange(0, 6)
        p = rng.random()
        keep = {u: rng.random() < p for u in all_words(depth)}.__getitem__
        avoided = DSet(lambda u, keep=keep: not keep(u))  # its avoid tree is keep's
        listed = tree(DSet(keep), validate=False)
        kept = [u for u in brute_descent_words(keep, depth) if keep(u)]
        assert list(descend(keep, depth)) == kept
        stopped = brute_descent_charges(keep, depth, stop_at_depth=True)
        scans = [(lambda: list(descend(keep, depth)), brute_descent_charges(keep, depth)),
                 (lambda: descent_height(keep, depth), stopped),
                 (lambda: avoid_descent(avoided, depth), stopped),
                 (lambda: tree_levels(listed, depth),
                  brute_descent_charges(keep, depth, listing=True))]
        for scan, charges in scans:
            for budget in range(1, sum(words for _, _, words in charges) + 2):
                monkeypatch.setenv("FANKIT_BUDGET", str(budget))
                got, used = _charged(scan)
                want_used, refusal = brute_metered(charges, budget)
                assert used == want_used, (depth, budget, charges)
                if refusal is None:
                    assert not isinstance(got, str), got
                else:
                    assert got == f"BudgetExceededError: {refusal}"


# ---------------------------------------------------------------------------
# What a visited word costs, counted deterministically: the Python frames
# entered per word (sys.setprofile's "call" events, generator resumes
# included; C calls are left out, as they differ between Python versions).

def _calls_per_visit(scan, keep, depth):
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"
    sys.setprofile(profile)
    try:
        scan()
    finally:
        sys.setprofile(None)
    return calls / len(brute_descent_words(keep, depth))


def test_a_visited_word_costs_few_python_calls():
    # a combinator calls its operands' membership functions directly and
    # the descent charges its meter inline: 4.0, 5.5 and 4.5 calls a word,
    # where routing through DSet.member and Meter.tick made 7.5, 10.5 and 10
    b = union_sets(len_ge(10), has_prefix((1, 1, 0)))
    assert _calls_per_visit(lambda: avoid_descent(b, 12), lambda u: not b.member(u), 12) <= 5
    c = closure(b)
    avoid = lambda u: not has_prefix_in(b.member, u)  # noqa: E731
    assert _calls_per_visit(lambda: avoid_descent(c, 12), avoid, 12) <= 7
    t = parse_specdoc("t = tree(complement(closure(finite(101))))\n").get_tree("t")
    assert _calls_per_visit(lambda: tree_levels(t, 10), t.member, 10) <= 6
