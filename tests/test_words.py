"""Words, sequences, and their primitive operations."""

from __future__ import annotations

import itertools
import random

import pytest

from fankit import (EMPTY, ONE, ZERO, Seq, concat, format_word, is_all_one,
                    is_all_zero, iter_level, level, lex_less, parse_word,
                    restrict, word)
from fankit.errors import BudgetExceededError, OutOfRangeError


def test_concat_words():
    assert concat((0, 1), (1, 0)) == (0, 1, 1, 0)


def test_concat_empty_identity():
    alpha = Seq.periodic((1,), (0, 1))
    assert concat(EMPTY, alpha) is alpha
    assert concat(EMPTY, (1, 1)) == (1, 1)


def test_concat_with_zero_tail_keeps_kind():
    a = concat((1,), ZERO)
    assert a.kind == "eventually-constant"
    assert restrict(a, 5) == (1, 0, 0, 0, 0)


def test_restrict_to_zero_is_empty():
    assert restrict((1, 0, 1), 0) == EMPTY


def test_restrict_word():
    assert restrict((1, 0, 1), 2) == (1, 0)


def test_restrict_zero_sequence():
    assert restrict(ZERO, 3) == (0, 0, 0)


def test_restrict_out_of_range():
    with pytest.raises(OutOfRangeError):
        restrict((1, 0), 3)


def test_lex_less_examples():
    assert lex_less((0, 1), (1, 0))
    assert not lex_less((0, 1), (0, 1))
    assert not lex_less((0,), (0, 1))


def test_lex_less_is_strict_total_order_per_level():
    for n in range(9):
        words = level(n)
        for i, u in enumerate(words):
            assert not lex_less(u, u)
            # order agrees with enumeration position
            for j in range(i + 1, len(words)):
                assert lex_less(u, words[j])
                assert not lex_less(words[j], u)
        if n >= 4:
            break  # pairwise scan is quadratic; deeper levels spot-checked
    words = level(8)
    assert all(lex_less(words[i], words[i + 1]) for i in range(len(words) - 1))


def test_level_examples():
    assert level(0) == [EMPTY]
    assert level(1) == [(0,), (1,)]
    assert level(2) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_level_budget(monkeypatch):
    monkeypatch.setenv("FANKIT_BUDGET", "16")
    with pytest.raises(BudgetExceededError):
        level(5)
    assert len(level(4)) == 16


def test_concat_associative_exhaustive():
    # all triples with total length up to 8
    for total in range(9):
        for a in range(total + 1):
            for b in range(total - a + 1):
                c = total - a - b
                for u in itertools.product((0, 1), repeat=a):
                    for v in itertools.product((0, 1), repeat=b):
                        for w in itertools.product((0, 1), repeat=c):
                            assert concat(concat(u, v), w) == concat(u, concat(v, w))


def test_restrict_recovers_prefix():
    tails = [ZERO, ONE, Seq.periodic(EMPTY, (0, 1)), Seq.periodic((1,), (1, 0, 0))]
    for n in range(9):
        for u in iter_level(n):
            for alpha in tails:
                assert restrict(concat(u, alpha), len(u)) == u


def test_restrict_matches_the_bit_by_bit_definition():
    # closed forms slice their prefix and pad it; an opaque rule is read a bit at a time
    rng = random.Random(1618)
    bits = lambda k: tuple(rng.randrange(2) for _ in range(k))
    for _ in range(200):
        prefix = bits(rng.randrange(0, 8))
        alpha = rng.choice((Seq.eventually_constant(prefix, rng.randrange(2)),
                            Seq.periodic(prefix, bits(rng.randrange(1, 5))),
                            Seq.from_rule(lambda i: i * i % 3 % 2, prefix)))
        for n in sorted({0, len(prefix) - 1, len(prefix), len(prefix) + 1,
                         rng.randrange(0, 40)} - {-1}):
            assert restrict(alpha, n) == tuple(alpha.at(i) for i in range(n)), (alpha, n)


def test_all_zero_all_one_against_bit_scans():
    for n in range(7):
        for u in iter_level(n):
            assert is_all_zero(u) == (len(u) > 0 and not any(u))
            assert is_all_one(u) == (len(u) > 0 and all(b == 1 for b in u))


def test_seq_closed_forms():
    a = Seq.eventually_constant((0, 1), 1)
    assert [a.at(i) for i in range(6)] == [0, 1, 1, 1, 1, 1]
    p = Seq.periodic((1,), (0, 1))
    assert [p.at(i) for i in range(6)] == [1, 0, 1, 0, 1, 0]


def test_seq_rule_memoization_invisible():
    calls = []

    def rule(i):
        calls.append(i)
        return i % 2

    a = Seq.from_rule(rule)
    first = [a.at(i) for i in range(5)]
    second = [a.at(i) for i in range(5)]
    assert first == second == [0, 1, 0, 1, 0]
    assert len(calls) == 5  # memoized, recomputation never observed


def test_seq_validates_bits():
    with pytest.raises(ValueError):
        Seq.eventually_constant((0, 2), 0)
    bad = Seq.from_rule(lambda i: 7)
    with pytest.raises(ValueError):
        bad.at(0)


def test_word_formatting_round_trip():
    assert format_word(EMPTY) == "e"
    assert parse_word("e") == EMPTY
    assert parse_word("0110") == (0, 1, 1, 0)
    assert format_word((0, 1, 1, 0)) == "0110"
    with pytest.raises(ValueError):
        parse_word("012")
    with pytest.raises(ValueError):
        word([0, 1, 2])


def test_format_word_writes_each_bit_as_its_digit():
    words = [u for n in range(11) for u in itertools.product((0, 1), repeat=n)]
    words.append(tuple(random.Random(1904).randrange(2) for _ in range(1024)))
    for u in words:
        assert format_word(u) == ("".join(map(str, u)) or "e")
