"""Definition-file parsing, CLI runs, and certificate verification."""

from __future__ import annotations

import itertools
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from fankit import Bar, ConstancyVerdict, DSet, Leaf, Node, Verdict, cli
from fankit.certificate import Certificate
from fankit.cli import COMMANDS, run
from fankit.specfile import SpecDoc, SpecError, parse_specdoc


BASIC_SPEC = """\
# basic definitions
len2 = len_ge(2)
empty = finite()
root = finite(e)
ones = count_ones_ge(1)
q2 = node(2, leaf(0), leaf(1))
zt = tree(complement(union(bit(0,1), ones)))
cb = bar(coconvex(stab(union(len_ge(3), ones), 3)), first_one_plus(3))
db = stab(union(bit(1,1), len_ge(3)), 3)
"""


def write_spec(tmp_path, text=BASIC_SPEC):
    path = tmp_path / "defs.fankit"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_basic_spec():
    doc = parse_specdoc(BASIC_SPEC)
    len2 = doc.get_set("len2")
    assert len2.member((0, 1)) and not len2.member((0,))
    assert doc.get_tree("zt").restriction_closed
    assert isinstance(doc.get_bar("cb"), Bar)
    assert doc.get_functional("q2") == Node(2, Leaf(0), Leaf(1))


def test_parse_reports_positions():
    with pytest.raises(SpecError) as err:
        parse_specdoc("a = len_ge(2)\nb = wrong(1)\n")
    assert "line 2" in str(err.value)
    with pytest.raises(SpecError) as err:
        parse_specdoc("a = len_ge(x)\n")
    assert "line 1" in str(err.value)


def test_parse_rejects_duplicates_and_forward_refs():
    with pytest.raises(SpecError) as err:
        parse_specdoc("a = len_ge(1)\na = len_ge(2)\n")
    assert "duplicate" in str(err.value)
    with pytest.raises(SpecError) as err:
        parse_specdoc("a = closure(b)\nb = len_ge(1)\n")
    assert "undefined" in str(err.value)


def test_parse_validates_claims():
    # the set {len == 1} is not extension-closed
    with pytest.raises(SpecError):
        parse_specdoc("a = ext_closed(finite(0, 1))\n")
    with pytest.raises(SpecError):
        parse_specdoc("a = interior(count_ones_ge(1))\n")  # no stab anywhere


def test_parse_words_and_empty_word():
    doc = parse_specdoc("a = finite(e, 01, 110)\n")
    a = doc.get_set("a")
    assert a.member(()) and a.member((0, 1)) and a.member((1, 1, 0))
    assert not a.member((1,))


def test_run_uniform_bound(tmp_path):
    code, text = run(["uniform-bound", "--spec", write_spec(tmp_path),
                      "--set", "len2", "--max", "8"])
    assert code == 0
    assert "VERDICT=YES" in text and "BOUND=2" in text


def test_run_bar_check_escape(tmp_path):
    code, text = run(["bar-check", "--spec", write_spec(tmp_path),
                      "--set", "empty", "--depth", "4"])
    assert code == 1
    assert "VERDICT=NO" in text and "ESCAPE=0000" in text


def test_run_bar_check_unknown(tmp_path):
    code, text = run(["bar-check", "--spec", write_spec(tmp_path),
                      "--set", "ones", "--depth", "6"])
    assert code == 2
    assert "VERDICT=UNKNOWN" in text


def test_run_uc_bound(tmp_path):
    code, text = run(["uc-bound", "--spec", write_spec(tmp_path), "--fn", "q2"])
    assert code == 0
    assert "BOUND=3" in text
    code2, text2 = run(["uc-bound", "--spec", write_spec(tmp_path),
                        "--fn", "q2", "--via-fan"])
    assert code2 == 0
    assert "BOUND=3" in text2
    assert "COMMAND=uc-bound --fn q2\n" in text
    assert "COMMAND=uc-bound --fn q2 --via-fan\n" in text2
    assert verify_text(tmp_path, write_spec(tmp_path), text2) == (0, "VERIFY=OK\n")


def chain_text(depth):
    """node(0, leaf(0), node(1, leaf(1), ...)): query depth `depth`, and
    the value is the position of the first 0, so every bit counts."""
    text = f"leaf({depth})"
    for k in reversed(range(depth)):
        text = f"node({k}, leaf({k}), {text})"
    return text


def complete_text(depth, order=None, values=None, k=0):
    """Complete tree of query depth `depth` that queries bit order[k] at
    depth k (bit k by default), with leaves 0, 1, 2, ... in order."""
    order = range(depth) if order is None else order
    values = iter(range(1 << depth)) if values is None else values
    if k == depth:
        return f"leaf({next(values)})"
    below = [complete_text(depth, order, values, k + 1) for _ in range(2)]
    return f"node({order[k]}, {below[0]}, {below[1]})"


def test_uc_bound_costs_the_tree_not_its_query_depth(tmp_path):
    # residual trees per level-n word made these cost 2^depth: the depth-20
    # chain (41 nodes) was refused, the depth-64 one unreachable
    lines = [f"ch{d} = {chain_text(d)}" for d in (20, 64)] + [
        f"c11 = {complete_text(11)}", "far = node(1000000, leaf(0), leaf(1))"]
    spec = write_spec(tmp_path, "\n".join(lines) + "\n")
    for name, bound, forms in (("ch20", 20, ([], ["--via-fan"])),
                               ("ch64", 64, ([], ["--via-fan"])),
                               ("c11", 11, ([], ["--via-fan"])), ("far", 1000001, ([],))):
        for extra in forms:
            code, text = run(["uc-bound", "--spec", spec, "--fn", name] + extra)
            assert code == 0 and f"BOUND={bound}\n" in text, (name, extra, text[:200])
            assert verify_text(tmp_path, spec, text) == (0, "VERIFY=OK\n"), (name, extra)
    # the fan searches as deep as the query depth, and no deeper
    code, text = run(["uc-bound", "--spec", spec, "--fn", "ch64", "--via-fan"])
    assert "TRACE=fan[brute-force(maxN=64)]=64\n" in text
    code, text = run(["uc-bound", "--spec", spec, "--fn", "far", "--via-fan"])
    assert code == 2 and text.startswith("ERROR=BudgetExceededError: "), text


def test_uc_bound_via_fan_keeps_shared_sub_functionals_shared(tmp_path, monkeypatch):
    # h_i = node(i, h_{i-1}, h_{i-1}) has i + 1 distinct nodes and 2^i
    # paths; a query depth or modulus built per path unfolds all of them
    # before the budgeted fan search can refuse
    lines = ["h0 = node(0, leaf(0), leaf(1))"] + [f"h{i} = node({i}, h{i - 1}, h{i - 1})"
                                                  for i in range(1, 27)]
    spec = write_spec(tmp_path, "\n".join(lines) + "\n")
    monkeypatch.setenv("FANKIT_BUDGET", "4096")
    code, text = run(["uc-bound", "--spec", spec, "--fn", "h8", "--via-fan"])
    assert code == 0 and "BOUND=9\n" in text, text
    assert verify_text(tmp_path, spec, text) == (0, "VERIFY=OK\n")
    tracemalloc.start()
    try:
        refusal = run(["uc-bound", "--spec", spec, "--fn", "h26", "--via-fan"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert refusal == (2, "ERROR=BudgetExceededError: descent at level 24: 4097 words used, "
                          "budget 4096\n")
    assert peak < 1 << 20


def test_a_claim_on_a_deep_nesting_is_validated(tmp_path):
    # the level evaluators take one frame per complement, membership two:
    # a claim 450 deep is validated, true or false, and bar-check answers
    nested = "complement(" * 450 + "len_ge(3)" + ")" * 450
    code, out = run(["bar-check", "--spec", write_spec(tmp_path, f"c = stab({nested}, 2)\n"),
                     "--set", "c", "--depth", "2"])
    assert (code, out) == (3, "ERROR=spec: line 1, column 5: stab=2 violated at 00 -> 000\n")
    spec = write_spec(tmp_path, f"c = stab({nested}, 4)\n")
    code, out = run(["bar-check", "--spec", spec, "--set", "c", "--depth", "2"])
    assert code == 2 and "VERDICT=UNKNOWN\nBOUND=2\n" in out, out[:200]
    assert verify_text(tmp_path, spec, out) == (0, "VERIFY=OK\n")


def test_nesting_too_deep_is_a_resource_error(tmp_path):
    # the 1500-node chain through names, one line nesting complement( 2000
    # deep, and a 3000-line chain of complements; the nested line parses,
    # and like the chain it fails in membership, two frames per complement
    chain = ["f1500 = leaf(1500)"] + [f"f{k} = node({k}, leaf({k}), f{k + 1})"
                                      for k in reversed(range(1500))]
    nested = "c = " + "complement(" * 2000 + "len_ge(1)" + ")" * 2000
    lines = ["c0 = len_ge(1)"] + [f"c{k} = complement(c{k - 1})" for k in range(1, 3001)]
    cases = [("\n".join(chain), ["uc-bound", "--fn", "f0"]),
             ("\n".join(chain), ["uc-bound", "--fn", "f0", "--via-fan"]),
             (nested, ["bar-check", "--set", "c", "--depth", "2"]),
             ("\n".join(lines), ["bar-check", "--set", "c3000", "--depth", "2"])]
    for text, argv in cases:
        spec = write_spec(tmp_path, text + "\n")
        code, out = run([argv[0], "--spec", spec] + argv[1:])
        assert code == 2 and out.startswith("ERROR=RecursionError: "), (argv, out[:200])
    # a deep chain is still answered where no walk recurses along it
    code, out = run(["deco", "--spec", write_spec(tmp_path, "\n".join(chain) + "\n"),
                     "--fn", "f0"])
    assert code == 0 and "VERDICT=EXISTS\n" in out, out[:200]


def test_a_deeply_nested_line_is_answered(tmp_path):
    # the parser keeps its open calls on a stack, so a line nesting
    # complement( 400 deep is answered and verified
    nested = "c = " + "complement(" * 400 + "len_ge(1)" + ")" * 400
    spec = write_spec(tmp_path, nested + "\n")
    code, text = run(["bar-check", "--spec", spec, "--set", "c", "--depth", "2"])
    assert code == 0 and "VERDICT=YES\nBOUND=1\n" in text, text[:200]
    assert verify_text(tmp_path, spec, text) == (0, "VERIFY=OK\n")


def test_uc_bound_is_metered_by_the_walk(tmp_path, monkeypatch):
    # c11 depends on its last bit, found at the first node querying it;
    # rev queries bits 10..0 but depends on bit 0 alone, so the producer
    # compares the two branches of every node querying a later bit
    rev = complete_text(11, order=range(10, -1, -1), values=itertools.cycle((0, 1)))
    spec = write_spec(tmp_path, f"c11 = {complete_text(11)}\nrev = {rev}\n")
    certs = {}
    for name, bound in (("c11", 11), ("rev", 1)):
        code, certs[name] = run(["uc-bound", "--spec", spec, "--fn", name])
        assert code == 0 and f"BOUND={bound}\n" in certs[name]
    monkeypatch.setenv("FANKIT_BUDGET", "64")
    assert run(["uc-bound", "--spec", spec, "--fn", "c11"]) == (0, certs["c11"])
    assert run(["deco", "--spec", spec, "--fn", "c11"])[0] == 0
    assert run(["uc-bound", "--spec", spec, "--fn", "rev"]) == (
        2, "ERROR=BudgetExceededError: dependence walk of bit 10: 65 words used, budget 64\n")
    assert verify_text(tmp_path, spec, certs["c11"]) == (  # walks all 2047 nodes
        2, "ERROR=BudgetExceededError: split walk at level 11: 65 words used, budget 64\n")


def test_run_complete_tree(tmp_path):
    spec = write_spec(tmp_path, BASIC_SPEC + "rt = tree(complement(closure(finite(0, 1))))\n")
    code, text = run(["complete-tree", "--spec", spec, "--tree", "rt", "--depth", "3"])
    assert code == 0
    assert "WITNESS=0:e" in text
    assert "WITNESS=3:000" in text


def test_run_complete_tree_needs_stab(tmp_path):
    # the bare zero tree has no stabilization depth, so completion refuses
    code, text = run(["complete-tree", "--spec", write_spec(tmp_path),
                      "--tree", "zt", "--depth", "3"])
    assert code == 3
    assert "stabilization" in text


def test_run_find_path(tmp_path):
    code, text = run(["find-path", "--spec", write_spec(tmp_path),
                      "--tree", "zt", "--bits", "5", "--oracle", "llpo:8"])
    assert code == 0
    assert "PATH=00000" in text
    assert "TRACE=llpo[bounded(h=8)]" in text


@pytest.mark.parametrize("base, argv", [
    ("complement(closure(finite(0, 10)))", ["find-path", "--bits", "5", "--oracle", "llpo:8"]),
    ("complement(closure(finite(0, 10)))", ["complete-tree", "--depth", "4"]),
    ("complement(len_ge(3))", ["complete-tree", "--depth", "4"]),
    ("finite(e, 0, 1)", ["complete-tree", "--depth", "4"]),
])
def test_a_tree_is_a_set_flagged_restriction_closed(tmp_path, base, argv):
    # restr_closed(x) is the set tree(x) is, so both answer alike but for
    # the name in COMMAND=; a set closed by construction needs neither
    spec = write_spec(tmp_path, f"t = tree({base})\nr = restr_closed({base})\n"
                                f"x = {base}\n")
    code, text = run([argv[0], "--spec", spec, "--tree", "t", *argv[1:]])
    assert code == 0 and "VERDICT=YES\n" in text, text
    for name in ("t", "r", "x") if base.startswith("complement") else ("t", "r"):
        answer = run([argv[0], "--spec", spec, "--tree", name, *argv[1:]])
        assert answer == (0, text.replace("--tree t ", f"--tree {name} "))
        assert verify_text(tmp_path, spec, answer[1]) == (0, "VERIFY=OK\n")


def test_a_set_not_flagged_restriction_closed_is_no_tree(tmp_path):
    spec = write_spec(tmp_path, "s = len_ge(2)\nb = bar(s, const(2))\n")
    for name, kind in (("s", "DSet"), ("b", "Bar")):
        assert run(["find-path", "--spec", spec, "--tree", name, "--bits", "2"]) == \
            (3, f"ERROR=PreconditionError: name {name!r} is a {kind}, but a tree is needed\n")


def test_run_coconvex_bound(tmp_path):
    code, text = run(["coconvex-bound", "--spec", write_spec(tmp_path),
                      "--bar", "cb"])
    assert code == 0
    assert "BOUND=3" in text


@pytest.mark.parametrize("k", [65, 128])
def test_coconvex_bound_follows_a_path_past_64_bits(tmp_path, k):
    # const(k) names level k on every sequence, and the word of k - 1
    # zeros is outside the carrier, so k is the bound; the ray it is read
    # from is followed k bits deep, past any fixed 64-bit path limit
    spec = write_spec(tmp_path, f"b = bar(coconvex(stab(union(len_ge({k}), "
                                f"count_ones_ge(1)), {k})), const({k}))\n")
    code, text = run(["coconvex-bound", "--spec", spec, "--bar", "b"])
    assert code == 0 and f"VERDICT=YES\nBOUND={k}\n--\n" in text, text
    assert verify_text(tmp_path, spec, text) == (0, "VERIFY=OK\n")


def test_run_deco_and_defu(tmp_path):
    spec = write_spec(tmp_path)
    code, text = run(["deco", "--spec", spec, "--fn", "q2"])
    assert code == 0
    assert "VERDICT=EXISTS" in text and "WITNESS=" in text
    code, text = run(["defu", "--spec", spec, "--set", "db", "--oracle", "llpo:16"])
    assert code == 0
    assert "VERDICT=EXISTS" in text

    doc = parse_specdoc(BASIC_SPEC)
    db = doc.get_set("db")
    witness = [line for line in text.splitlines() if line.startswith("WITNESS=")]
    assert witness
    from fankit import parse_word
    assert not db.member(parse_word(witness[0].split("=", 1)[1]))


def test_run_usage_errors(tmp_path):
    code, text = run(["bar-check", "--spec", write_spec(tmp_path),
                      "--set", "missing", "--depth", "3"])
    assert code == 3
    assert "ERROR=" in text
    code, _ = run(["bogus-command", "--spec", write_spec(tmp_path)])
    assert code == 3
    code, text = run(["uniform-bound", "--spec", str(tmp_path / "nope.fankit"),
                      "--set", "a", "--max", "3"])
    assert code == 3


def test_certificate_round_trip_text():
    cert = Certificate("uniform-bound --set a --max 4", "YES", [("BOUND", "2")],
                       trace="x;y")
    parsed = Certificate.parse(cert.render())
    assert parsed.command == cert.command
    assert parsed.verdict == "YES"
    assert parsed.single("BOUND") == "2"
    assert parsed.trace == "x;y"


def test_verify_accepts_and_rejects(tmp_path):
    spec = write_spec(tmp_path)
    code, text = run(["uniform-bound", "--spec", spec, "--set", "len2", "--max", "8"])
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(text, encoding="utf-8")
    code, out = run(["verify", "--spec", spec, "--cert", str(cert_path)])
    assert code == 0 and "VERIFY=OK" in out

    tampered = text.replace("BOUND=2", "BOUND=1")
    cert_path.write_text(tampered, encoding="utf-8")
    code, out = run(["verify", "--spec", spec, "--cert", str(cert_path)])
    assert code == 1
    assert "VERIFY=FAIL" in out
    assert "word 0 at level 1" in out  # the witness word (0)


def test_verify_rejects_bad_path(tmp_path):
    spec = write_spec(tmp_path)
    cert = Certificate("find-path --tree zt --bits 2 --oracle llpo:8",
                       "YES", [("PATH", "10")])
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(cert.render(), encoding="utf-8")
    code, out = run(["verify", "--spec", spec, "--cert", str(cert_path)])
    assert code == 1
    assert "VERIFY=FAIL" in out
    assert "path prefix 1 is not in the tree" in out


def verify_text(tmp_path, spec, text):
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(text, encoding="utf-8")
    return run(["verify", "--spec", spec, "--cert", str(cert_path)])


def assert_rejected(tmp_path, spec, text, reason):
    code, out = verify_text(tmp_path, spec, text)
    assert code == 1 and "VERIFY=FAIL" in out, (text, out)
    assert reason in out, out


def test_verify_requires_the_least_bound_within_the_depth(tmp_path):
    spec = write_spec(tmp_path, BASIC_SPEC + "len3 = len_ge(3)\n")
    forged = Certificate("bar-check --set len3 --depth 4", "YES", [("BOUND", "5")]).render()
    assert_rejected(tmp_path, spec, forged, "exceeds --depth 4")
    for argv, bound in ((["bar-check", "--set", "len3", "--depth", "6"], "3"),
                        (["uniform-bound", "--set", "len3", "--max", "6"], "3")):
        code, text = run(argv[:1] + ["--spec", spec] + argv[1:])
        assert code == 0 and f"BOUND={bound}" in text
        assert verify_text(tmp_path, spec, text)[0] == 0
        assert_rejected(tmp_path, spec, text.replace("BOUND=3", "BOUND=4"),
                        "bound 4 is not the least")
        assert_rejected(tmp_path, spec, text.replace("BOUND=3", "BOUND=2"),
                        "at level 2 has no prefix")
    # payload keys the producer never writes with this verdict
    for extra in ("PATH=0101", "WITNESS=junk"):
        assert_rejected(tmp_path, spec, text.replace("BOUND=3\n", f"BOUND=3\n{extra}\n"),
                        f"verdict YES with {extra.split('=')[0]} does not fit uniform-bound")
    code, text = run(["bar-check", "--spec", spec, "--set", "len3", "--depth", "6"])
    extra = text.replace("BOUND=3\n", "BOUND=3\nPATH=0101\nWITNESS=junk\n")
    assert_rejected(tmp_path, spec, extra, "verdict YES with PATH does not fit bar-check")


def test_verify_rejects_mutated_unknown_and_escape(tmp_path):
    spec = write_spec(tmp_path)
    code, text = run(["bar-check", "--spec", spec, "--set", "ones", "--depth", "6"])
    assert code == 2 and "BOUND=6" in text
    assert_rejected(tmp_path, spec, text.replace("BOUND=6", "BOUND=5"), "not --depth 6")
    code, text = run(["bar-check", "--spec", spec, "--set", "empty", "--depth", "4"])
    assert code == 1 and verify_text(tmp_path, spec, text)[0] == 0
    assert_rejected(tmp_path, spec, text.replace("ESCAPE=0000", "ESCAPE=000"),
                    "not --depth 4")
    code, text = run(["uc-bound", "--spec", spec, "--fn", "q2"])
    assert code == 0 and verify_text(tmp_path, spec, text)[0] == 0
    assert_rejected(tmp_path, spec, text.replace("VERDICT=YES", "VERDICT=BANANA"),
                    "verdict BANANA does not fit uc-bound")
    assert_rejected(tmp_path, spec, text.replace("BOUND=3", "BOUND=2"),
                    "is not constant at level 2")


def test_verify_rejects_mutated_level_listings(tmp_path):
    spec = write_spec(tmp_path, BASIC_SPEC + "rt = tree(complement(closure(finite(0, 1))))\n")
    code, text = run(["complete-tree", "--spec", spec, "--tree", "rt", "--depth", "3"])
    assert code == 0 and verify_text(tmp_path, spec, text)[0] == 0
    extra = text.replace("WITNESS=3:000\n", "WITNESS=3:000\nWITNESS=4:0000\n")
    assert_rejected(tmp_path, spec, extra,
                    "WITNESS line 4: certificate says '4:0000', recomputation says None")
    repeated = text.replace("WITNESS=3:000\n", "WITNESS=3:000\nWITNESS=1:0\n")
    assert_rejected(tmp_path, spec, repeated,
                    "WITNESS line 4: certificate says '1:0', recomputation says None")
    dropped = text.replace("WITNESS=2:00\n", "")
    assert_rejected(tmp_path, spec, dropped,
                    "WITNESS line 2: certificate says '3:000', recomputation says '2:00'\n"
                    "DIFF=WITNESS line 3: certificate says None, recomputation says '3:000'")
    # a level number the producer never writes is a format error
    for bad, exit_code in (("WITNESS=3", 1), ("WITNESS=three:000", 3), ("WITNESS=03:000", 3)):
        out = verify_text(tmp_path, spec, text.replace("WITNESS=3:000", bad))
        assert out[0] == exit_code, (bad, out)
    assert_rejected(tmp_path, spec, text.replace("VERDICT=YES", "VERDICT=BANANA"),
                    "verdict BANANA does not fit complete-tree")


def test_verify_rejects_reordered_level_listings(tmp_path):
    # the producer lists the levels in order; any other order is not its
    # listing, although every level is right
    spec = write_spec(tmp_path, BASIC_SPEC + "rt = tree(complement(closure(finite(0, 1))))\n")
    code, text = run(["complete-tree", "--spec", spec, "--tree", "rt", "--depth", "3"])
    lines = text.split("\n")
    at = [k for k, line in enumerate(lines) if line.startswith("WITNESS=")]
    for order in (at[::-1], at[1:] + at[:1]):
        moved = list(lines)
        for k, j in zip(at, order):
            moved[k] = lines[j]
        assert_rejected(tmp_path, spec, "\n".join(moved), "WITNESS line 0: certificate says")


def test_verify_rejects_a_path_of_the_wrong_length(tmp_path):
    spec = write_spec(tmp_path)
    code, text = run(["find-path", "--spec", spec, "--tree", "zt", "--bits", "6",
                      "--oracle", "llpo:8"])
    assert code == 0 and "PATH=000000" in text
    assert_rejected(tmp_path, spec, text.replace("PATH=000000", "PATH=e"),
                    "path has 0 bits, not --bits 6")
    assert_rejected(tmp_path, spec, text.replace("PATH=000000", "PATH=00000"),
                    "path has 5 bits")
    assert_rejected(tmp_path, spec, text.replace("VERDICT=YES", "VERDICT=BANANA"),
                    "verdict BANANA does not fit find-path")


def test_malformed_certificates_are_format_errors(tmp_path):
    spec = write_spec(tmp_path)
    for command, payload in (
        ("uniform-bound --set len2 --max 8", [("BOUND", "abc")]),
        ("uniform-bound --set len2 --max 8", [("BOUND", "-1")]),
        ("uniform-bound --max 8", [("BOUND", "2")]),
        ("bar-check --set len2 --depth x", [("BOUND", "2")]),
        ("find-path --tree zt --bits 2 --oracle llpo:8", [("PATH", "0a")]),
        ("complete-tree --tree zt --depth 1", [("WITNESS", "x:e")]),
        # numbers the producer never writes
        ("uniform-bound --set len2 --max 8", [("BOUND", "02")]),
        ("uniform-bound --set len2 --max 8", [("BOUND", "\uff12")]),  # full-width 2
        ("uniform-bound --set len2 --max 8", [("BOUND", "9" * 5000)]),
        ("complete-tree --tree zt --depth " + "9" * 5000, [("WITNESS", "0:e")]),
        # COMMAND lines the producer never writes
        ("bar-check --set len2 --depth 3 --bogus 1", [("BOUND", "2")]),
        ("bar-check --depth 9 --set len2 --depth 3", [("BOUND", "2")]),
        ("bar-check --depth 3 --set len2", [("BOUND", "2")]),
        ("bar-check --set len2 --depth 03", [("BOUND", "2")]),
        ("bar-check --set len2 --depth +3", [("BOUND", "2")]),
        ("find-path --tree zt --bits 2", [("PATH", "00")]),
        ("find-path --tree zt --bits 2 --oracle llpo:016", [("PATH", "00")]),
        ("find-path --tree zt --bits 2 --oracle llpo:x", [("PATH", "00")]),
        ("find-path --tree zt --bits 2 --oracle 8", [("PATH", "00")]),
        ("uc-bound --fn q2 --via-fan x", [("BOUND", "3")]),
        ("uc-bound --fn q2 --via-fan --via-fan", [("BOUND", "3")]),
        ("verify --cert x", []),
        ("", [("BOUND", "2")]),
    ):
        text = Certificate(command, "YES", payload).render()
        code, out = verify_text(tmp_path, spec, text)
        assert code == 3, (command, payload, out)
        assert out.startswith("ERROR=CertificateFormatError"), out
    # the layout render writes: COMMAND and VERDICT open the checked region,
    # once each, and the separator ends it
    good = "FANKIT-CERT\nCOMMAND=uniform-bound --set len2 --max 8\nVERDICT=YES\nBOUND=2\n--\n"
    assert verify_text(tmp_path, spec, good) == (0, "VERIFY=OK\n")
    for text in (good.replace("COMMAND=uniform-bound --set len2 --max 8\nVERDICT=YES",
                              "VERDICT=YES\nCOMMAND=uniform-bound --set len2 --max 8"),
                 good.replace("COMMAND=uniform-bound --set len2 --max 8\nVERDICT=YES",
                              "VERDICT=uniform-bound --set len2 --max 8\nCOMMAND=YES"),
                 good.replace("VERDICT=YES\n", "VERDICT=NO\nVERDICT=YES\n"),
                 good.replace("BOUND=2\n", "BOUND=2\nCOMMAND=uniform-bound --set len2 --max 8\n"),
                 good.replace("--\n", ""),
                 good.replace("FANKIT-CERT\n", "")):
        code, out = verify_text(tmp_path, spec, text)
        assert code != 0 and out.startswith(("ERROR=CertificateFormatError", "VERIFY=FAIL")), \
            (text, out)
    code, out = run(["verify", "--spec", spec, "--cert", str(tmp_path / "missing.txt")])
    assert code == 3 and out.startswith("ERROR=")


def test_bad_bits_and_negative_numbers_are_usage_errors(tmp_path):
    with pytest.raises(SpecError) as err:
        parse_specdoc("a = len_ge(1)\nb = bit(0,2)\n")
    assert "line 2, column 5" in str(err.value)
    code, text = run(["bar-check", "--spec", write_spec(tmp_path, "b = bit(0,2)\n"),
                      "--set", "b", "--depth", "2"])
    assert code == 3 and text.startswith("ERROR=spec: line 1")
    spec = write_spec(tmp_path)
    for argv in (["bar-check", "--set", "len2", "--depth", "-1"],
                 ["uniform-bound", "--set", "len2", "--max", "-1"],
                 ["complete-tree", "--tree", "zt", "--depth", "-2"],
                 ["find-path", "--tree", "zt", "--bits", "-1"]):
        code, text = run(argv[:1] + ["--spec", spec] + argv[1:])
        assert code == 3 and text.startswith("ERROR=usage"), (argv, text)
    for argv in (["find-path", "--tree", "zt", "--bits", "3", "--oracle", "llpo:-5"],
                 ["defu", "--set", "db", "--oracle", "llpo:-1"]):
        code, text = run(argv[:1] + ["--spec", spec] + argv[1:])
        assert code == 3 and text.startswith("ERROR=usage") \
            and "horizon must be nonnegative" in text, (argv, text)


def test_thin_completion_is_metered_by_visits(tmp_path):
    spec = write_spec(tmp_path, "t = tree(finite(e, 1, 10))\n")
    code, text = run(["complete-tree", "--spec", spec, "--tree", "t", "--depth", "20"])
    assert code == 0, text
    levels = ["e", "1"] + ["10" + "0" * (k - 2) for k in range(2, 21)]
    assert [line for line in text.splitlines() if line.startswith("WITNESS=")] == \
        [f"WITNESS={k}:{u}" for k, u in enumerate(levels)]
    assert verify_text(tmp_path, spec, text)[0] == 0


def test_deep_llpo_horizons_are_metered_by_visits(tmp_path):
    # an LLPO horizon of 64 asks survival 32 levels below each child
    spec = write_spec(tmp_path, BASIC_SPEC + "rt = tree(complement(closure(finite(1))))\n")
    for argv, expected in (
        (["find-path", "--tree", "rt", "--bits", "8", "--oracle", "llpo:64"], "PATH=00000000"),
        (["find-path", "--tree", "zt", "--bits", "8", "--oracle", "llpo:64"], "PATH=00000000"),
        (["defu", "--set", "db", "--oracle", "llpo:64"], "VERDICT=EXISTS"),
    ):
        code, text = run(argv[:1] + ["--spec", spec] + argv[1:])
        assert code == 0 and expected in text, text
        assert verify_text(tmp_path, spec, text) == (0, "VERIFY=OK\n"), text


def test_llpo_horizons_beyond_the_budget_are_refused_up_front(tmp_path, monkeypatch):
    # every answer of the bounded oracle scans indices 0..H, and its H + 1
    # words are charged to the run before it reads any of them
    spec = write_spec(tmp_path, "t = tree(complement(bit(0,1)))\n"
                                "a = stab(union(bit(1,1), len_ge(3)), 3)\n")
    monkeypatch.setenv("FANKIT_BUDGET", "64")
    argv = ["find-path", "--spec", spec, "--tree", "t", "--bits", "4"]
    assert run(argv + ["--oracle", "llpo:64"]) == (
        2, "ERROR=BudgetExceededError: LLPO search to horizon 64: 65 words used, budget 64\n")
    # four bits are four scans of 64 indices, and 8 words of survival walks
    for budget, expected in (("64", 2), ("263", 2), ("264", 0)):
        monkeypatch.setenv("FANKIT_BUDGET", budget)
        assert run(argv + ["--oracle", "llpo:63"])[0] == expected, budget
    # unchecked, these two ran until stopped; the defu table to stab 3
    # is 15 words
    monkeypatch.delenv("FANKIT_BUDGET")
    for argv, used in (
            (["find-path", "--tree", "t", "--bits", "10", "--oracle", "llpo:99999999999"], 0),
            (["defu", "--set", "a", "--oracle", "llpo:99999999999"], 15)):
        code, text = run(argv[:1] + ["--spec", spec] + argv[1:])
        assert (code, text) == (2, "ERROR=BudgetExceededError: LLPO search to horizon "
                                   f"99999999999: {100000000000 + used} words used, "
                                   "budget 1048576\n")


def test_find_path_bits_are_capped_and_every_scan_is_charged(tmp_path, monkeypatch):
    spec = write_spec(tmp_path, "t = tree(complement(bit(0,1)))\n")
    argv = ["find-path", "--spec", spec, "--tree", "t", "--bits"]
    # each bit is one LLPO scan of 17 indices and its survival walks; this
    # once answered with a 0.5 MB certificate, every scan within the budget
    monkeypatch.setenv("FANKIT_BUDGET", "64")
    assert run(argv + ["1000"]) == (
        2, "ERROR=BudgetExceededError: LLPO search to horizon 16: 74 words used, budget 64\n")
    # past the depth cap, a path is refused before its first bit, and so is
    # its re-check; 100000000 bits once ran until stopped
    monkeypatch.delenv("FANKIT_BUDGET")
    for bits in (1025, 100000000):
        refusal = (2, f"ERROR=BudgetExceededError: find-path would go {bits} bits deep, "
                      "past the cap of 1024\n")
        assert run(argv + [str(bits)]) == refusal
        cert = Certificate(f"find-path --tree t --bits {bits} --oracle llpo:16", "YES",
                           [("PATH", "0")])
        assert verify_text(tmp_path, spec, cert.render()) == refusal
    code, text = run(argv + ["1024"])
    assert code == 0 and f"PATH={'0' * 1024}\n" in text
    assert verify_text(tmp_path, spec, text) == (0, "VERIFY=OK\n")
    # each TRACE event names its prefix by length, so the certificate grows
    # linearly with the path, not with its square
    assert "TRACE=llpo[bounded(h=16)]@0=EVENS;llpo[bounded(h=16)]@1=EVENS;" in text
    assert len(text.encode()) < 64 << 10


def _levels_of_lookups(monkeypatch, levels_fn):
    """Make every set and tree a run looks up carry levels_fn(ds) as its
    level evaluator; nothing else about them changes."""
    lookup = SpecDoc._lookup

    def patched(self, name, wanted):
        found = lookup(self, name, wanted)
        if isinstance(found, DSet) and found.levels_fn is not None:
            found = found.replace(levels_fn=levels_fn(found))
        return found
    monkeypatch.setattr(SpecDoc, "_lookup", patched)


MASK_RUNS = [(["uniform-bound", "--set", "s", "--max", "6"], "s = len_ge(3)", 3, 0),
             (["bar-check", "--set", "s", "--depth", "6"], "s = len_ge(3)", 3, 0),
             (["complete-tree", "--tree", "t", "--depth", "4"],
              "t = tree(complement(len_ge(3)))", 2, 1)]


@pytest.mark.parametrize("argv, line, level, word", MASK_RUNS)
def test_verify_catches_a_level_evaluator_that_drops_a_word(tmp_path, monkeypatch,
                                                            argv, line, level, word):
    # the producer reads the set's levels as masks; an evaluator that
    # drops one member of level `level` misleads it, and verify, which
    # descends through membership, says so
    spec = write_spec(tmp_path, line + "\n")
    honest = run(argv[:1] + ["--spec", spec] + argv[1:])

    def dropping(ds):
        def levels(depth):
            for n, row in enumerate(ds.levels_fn(depth)):
                yield row & ~(1 << word) if n == level else row
        return levels

    with monkeypatch.context() as patch:
        _levels_of_lookups(patch, dropping)
        code, text = run(argv[:1] + ["--spec", spec] + argv[1:])
    assert code == 0 and text != honest[1]
    vcode, report = verify_text(tmp_path, spec, text)
    assert vcode == 1 and report.startswith("VERIFY=FAIL\nDIFF="), report


@pytest.mark.parametrize("argv, line", [run[:2] for run in MASK_RUNS] + [
    (["bar-check", "--set", "s", "--depth", "9"], "s = intersect(len_ge(8), complement(prefix(101)))"),
    (["uniform-bound", "--set", "s", "--max", "7"], "s = closure(union(len_ge(9), prefix(11)))"),
    (["complete-tree", "--tree", "t", "--depth", "9"], "t = tree(complement(closure(finite(011))))")])
def test_verify_reads_no_level_evaluator(tmp_path, monkeypatch, argv, line):
    spec = write_spec(tmp_path, line + "\n")
    code, text = run(argv[:1] + ["--spec", spec] + argv[1:])
    assert code in (0, 1, 2) and text.startswith("FANKIT-CERT\n")

    def refusing(ds):
        def levels(depth):
            raise AssertionError("verify read a level evaluator")
        return levels

    _levels_of_lookups(monkeypatch, refusing)
    assert verify_text(tmp_path, spec, text) == (0, "VERIFY=OK\n")


def test_a_level_listing_is_charged_by_its_bits(tmp_path, monkeypatch):
    # the descent goes down the zero ray first, so every listed word is
    # about 1024 bits long; charged one word each, such words took about
    # 8 KB each before the budget stopped the listing
    spec = write_spec(tmp_path, "zt = tree(complement(closure(finite(1))))\n")
    monkeypatch.setenv("FANKIT_BUDGET", "262144")
    tracemalloc.start()
    try:
        refusal = run(["complete-tree", "--spec", spec, "--tree", "zt", "--depth", "1024"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert refusal == (2, "ERROR=BudgetExceededError: level listing at level 723: "
                          "262453 words used, budget 262144\n")
    assert peak < 8 << 20


# What a run may say when its budget runs out: the operation, its level
# where it has one, the words used and the limit, on one line.
OPERATIONS = ("descent", "level enumeration", "claim validation to horizon",
              "defu escape scan to depth", "interior to stab", "LLPO search to horizon",
              "constancy walk", "dependence walk of bit", "split walk", "level listing")
REFUSAL = re.compile("ERROR=BudgetExceededError: (?:{})[^:\n]*: [0-9]+ words used, "
                     "budget [0-9]+\n".format("|".join(map(re.escape, OPERATIONS))))
SMALL_BUDGETS = (1, 4, 16, 64, 256, 1024)


@pytest.mark.parametrize("argv", [
    ["bar-check", "--set", "len2", "--depth", "6"],
    ["uniform-bound", "--set", "ones", "--max", "6"],
    ["complete-tree", "--tree", "t", "--depth", "6"],
    ["find-path", "--tree", "t", "--bits", "6", "--oracle", "llpo:8"],
    ["coconvex-bound", "--bar", "cb"],
    ["uc-bound", "--fn", "f"],
    ["uc-bound", "--fn", "f", "--via-fan"],
    ["deco", "--fn", "f"],
    ["defu", "--set", "d", "--oracle", "llpo:8"],
    ["defu", "--set", "full", "--oracle", "llpo:8"],
], ids=" ".join)
def test_every_command_answers_or_names_the_scan_that_ran_out(tmp_path, monkeypatch, argv):
    spec = write_spec(tmp_path, "len2 = len_ge(2)\nones = count_ones_ge(1)\n"
                                "t = tree(complement(closure(finite(11))))\n"
                                "cb = bar(len_ge(3), const(3))\n"
                                "g = node(0, leaf(0), leaf(1))\n"
                                "f = node(3, g, node(5, leaf(1), leaf(1)))\n"
                                "d = union(bit(1,1), len_ge(3))\nfull = stab(len_ge(0), 4)\n")
    argv = argv[:1] + ["--spec", spec] + argv[1:]
    answer = run(argv)
    assert answer[1].startswith("FANKIT-CERT\n"), answer
    refused = []
    for budget in SMALL_BUDGETS:
        monkeypatch.setenv("FANKIT_BUDGET", str(budget))
        for got, ok in ((run(argv), answer),
                        (verify_text(tmp_path, spec, answer[1]), (0, "VERIFY=OK\n"))):
            if got != ok:
                assert got[0] == 2 and REFUSAL.fullmatch(got[1]), got
                refused.append(budget)
    assert refused and refused[0] == 1
    monkeypatch.delenv("FANKIT_BUDGET")
    assert verify_text(tmp_path, spec, answer[1]) == (0, "VERIFY=OK\n")


def test_deep_scans_and_small_budgets_fail_cleanly(tmp_path, monkeypatch):
    spec = write_spec(tmp_path, BASIC_SPEC + "len3 = len_ge(3)\nt = tree(finite(e, 1, 10))\n")
    for argv in (["bar-check", "--set", "empty", "--depth", "5000"],
                 ["complete-tree", "--tree", "t", "--depth", "5000"],
                 ["bar-check", "--set", "empty", "--depth", "1000000000"],
                 ["complete-tree", "--tree", "t", "--depth", "1000000000"]):
        code, text = run(argv[:1] + ["--spec", spec] + argv[1:])
        assert code == 2 and text.startswith("ERROR=BudgetExceededError"), text
    # a certificate naming such a depth cannot be re-checked either; that
    # is no verdict on it
    for cert in (
        Certificate("complete-tree --tree t --depth 1000000000", "YES", [("WITNESS", "0:e")]),
        Certificate("uniform-bound --set empty --max 1000000000", "UNKNOWN",
                    [("BOUND", "1000000000")]),
    ):
        code, out = verify_text(tmp_path, spec, cert.render())
        assert code == 2 and out.startswith("ERROR=BudgetExceededError"), out
    # a bar found early is answered whatever the depth
    code, text = run(["bar-check", "--spec", spec, "--set", "len3", "--depth", "100000"])
    assert code == 0 and "BOUND=3" in text
    # validating the spec's claims is itself over this budget
    monkeypatch.setenv("FANKIT_BUDGET", "256")
    code, text = run(["complete-tree", "--spec", spec, "--tree", "t", "--depth", "4"])
    assert code == 2 and text.startswith("ERROR=BudgetExceededError"), text
    assert text == ("ERROR=BudgetExceededError: claim validation to horizon 8 at level 8: "
                    "511 words used, budget 256\n")


def test_deco_not_exists_is_not_rechecked_by_the_producer(tmp_path, monkeypatch):
    # a producer whose constancy test always answers "constant" writes
    # NOT_EXISTS for a functional that is not constant; verify must not
    # ask that same test
    spec = write_spec(tmp_path)
    mutant = lambda f: ConstancyVerdict(value=0)  # noqa: E731
    for module in ("fankit.continuity", "fankit.certificate"):
        monkeypatch.setattr(f"{module}.is_constant", mutant, raising=False)
    code, text = run(["deco", "--spec", spec, "--fn", "q2"])
    assert code == 0 and "VERDICT=NOT_EXISTS\n" in text, text
    assert_rejected(tmp_path, spec, text, "the functional is not constant")


def test_scan_unknown_is_not_rechecked_by_the_producer(tmp_path, monkeypatch):
    # producers that answer UNKNOWN where the question is decided (NO for
    # s: it stabilizes at 3 and 1100 escapes; YES for len2) write UNKNOWN
    # certificates; verify must not ask those same scans
    spec = write_spec(tmp_path, BASIC_SPEC + "s = intersect(len_ge(3), complement(prefix(11)))\n")
    mutant = lambda b, depth: Verdict.unknown(depth)  # noqa: E731
    for module in ("fankit.sets", "fankit.cli", "fankit.certificate"):
        for scan in ("bar_verdict", "uniform_bound"):
            monkeypatch.setattr(f"{module}.{scan}", mutant, raising=False)
    for argv in (["bar-check", "--set", "s", "--depth", "4"],
                 ["uniform-bound", "--set", "len2", "--max", "4"]):
        code, text = run(argv[:1] + ["--spec", spec] + argv[1:])
        assert code == 2 and "VERDICT=UNKNOWN\nBOUND=4\n" in text, text
        assert_rejected(tmp_path, spec, text, "a scan to depth 4 decides the question")


def test_defu_not_exists_is_rechecked_within_the_producers_budget(tmp_path, monkeypatch):
    # both runs charge the claim validation (511 words) and the table of
    # levels 0..9 (1023 words); only the producer searches a path, so the
    # re-check succeeds under every budget under which the producer does
    spec = write_spec(tmp_path, "full = stab(len_ge(0), 9)\n")
    code, text = run(["defu", "--spec", spec, "--set", "full"])
    assert code == 0 and "VERDICT=NOT_EXISTS" in text

    def least_budget(check):
        low, high = 1, 1 << 20  # check() passes at high and not below the answer
        while low < high:
            middle = (low + high) // 2
            monkeypatch.setenv("FANKIT_BUDGET", str(middle))
            low, high = (low, middle) if check() else (middle + 1, high)
        return low

    produce = least_budget(lambda: run(["defu", "--spec", spec, "--set", "full"]) == (0, text))
    recheck = least_budget(lambda: verify_text(tmp_path, spec, text) == (0, "VERIFY=OK\n"))
    assert recheck == 511 + 1023 < produce
    for budget in range(recheck, produce + 2):
        monkeypatch.setenv("FANKIT_BUDGET", str(budget))
        assert verify_text(tmp_path, spec, text) == (0, "VERIFY=OK\n"), budget
    monkeypatch.setenv("FANKIT_BUDGET", str(recheck - 1))
    assert verify_text(tmp_path, spec, text) == (
        2, "ERROR=BudgetExceededError: defu escape scan to depth 9 at level 9: "
           f"{recheck} words used, budget {recheck - 1}\n")


def test_defu_reads_a_spec_built_set_by_whole_levels(tmp_path, monkeypatch):
    # the table of levels 0..13 (16,383 words) comes from the level
    # evaluators, in produce and in verify: the set is asked no word
    spec = write_spec(tmp_path, "d = stab(union(prefix(001), complement(prefix(001))), 13)\n")
    asked = Counter()
    load, member = cli.load_specdoc, DSet.member

    def loading(path):
        doc = load(path)
        d = doc.get_set("d")
        doc.definitions["d"] = d.replace(
            member_fn=lambda u: asked.update(["member_fn"]) or d.member_fn(u))
        return doc

    def counting(self, u):
        if self.levels_fn is not None:
            asked["member"] += 1
        return member(self, u)

    monkeypatch.setattr(cli, "load_specdoc", loading)
    monkeypatch.setattr(DSet, "member", counting)
    code, text = run(["defu", "--spec", spec, "--set", "d", "--oracle", "llpo:32"])
    assert code == 0 and "VERDICT=NOT_EXISTS" in text
    assert verify_text(tmp_path, spec, text) == (0, "VERIFY=OK\n")
    assert not asked, asked


def test_defu_refuses_an_escape_at_the_stab_depth(tmp_path):
    # the path runs through the least escape 0000, and no prefix of it is
    # in the interior
    spec = write_spec(tmp_path, "d = stab(complement(prefix(0000)), 4)\n")
    assert run(["defu", "--spec", spec, "--set", "d"]) == (
        1, "ERROR=CertificateError: the interior is not a bar along the produced path; "
           "the bar assertion on the interior was false\n")


def test_defu_on_a_huge_stab_is_refused_by_its_exponent(tmp_path, monkeypatch):
    # the table's levels are charged before any is built: after the claim
    # validation of both lines (511 words each), levels 0..19 (2^20 - 1
    # words) pass the budget
    monkeypatch.delenv("FANKIT_BUDGET", raising=False)
    spec = write_spec(tmp_path, "d = stab(len_ge(0), 20000)\n"
                                "huge = stab(len_ge(0), 99999999999)\n")
    for name, s in (("d", 20000), ("huge", 99999999999)):
        refusal = (2, f"ERROR=BudgetExceededError: defu escape scan to depth {s} at level 19: "
                      f"{2 * 511 + (1 << 20) - 1} words used, budget 1048576\n")
        assert run(["defu", "--spec", spec, "--set", name]) == refusal
        cert = Certificate(f"defu --set {name} --oracle llpo:16", "NOT_EXISTS", [])
        assert verify_text(tmp_path, spec, cert.render()) == refusal


def test_interior_is_metered(tmp_path, monkeypatch):
    # unmetered, this took about 1 s and 126 MB at any budget
    spec = write_spec(tmp_path, "a = interior(complement(finite(111111111111111111)))\n")
    monkeypatch.setenv("FANKIT_BUDGET", "64")
    code, text = run(["bar-check", "--spec", spec, "--set", "a", "--depth", "4"])
    assert (code, text) == (2, "ERROR=BudgetExceededError: interior to stab 19 at level 17: "
                               "65 words used, budget 64\n")


def test_non_utf8_text_and_unreadable_digits_exit_3(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfelen2 = len_ge(2)\n")
    code, text = run(["bar-check", "--spec", str(bad), "--set", "len2", "--depth", "2"])
    assert (code, text) == (3, "ERROR=spec: line 1, column 1: byte 0xff is not UTF-8 text "
                               "(invalid start byte)\n")
    spec = tmp_path / "late.fankit"
    spec.write_bytes(b"a = len_ge(1)\nb = len_ge(2)  # caf\xc3\xa9 \xe9\n")
    code, text = run(["bar-check", "--spec", str(spec), "--set", "a", "--depth", "2"])
    assert code == 3 and text.startswith("ERROR=spec: line 2, column 23: byte 0xe9"), text
    code, text = run(["verify", "--spec", write_spec(tmp_path), "--cert", str(bad)])
    assert code == 3 and text.startswith("ERROR=CertificateFormatError: "
                                         "certificate is not UTF-8 text"), text
    # digits that int() does not read
    for number in ("\u00b2", "9" * 5000):
        spec = write_spec(tmp_path, f"a = len_ge({number})\n")
        code, text = run(["bar-check", "--spec", spec, "--set", "a", "--depth", "2"])
        assert code == 3 and text.startswith("ERROR=spec: line 1, column 12: "
                                             "expected an integer"), text


def test_every_count_is_read_one_way(tmp_path, monkeypatch):
    # a count is one or more ASCII digits wherever fankit reads one; each
    # site refuses anything else with its own exit code and text, never
    # with int()'s
    spec = write_spec(tmp_path)
    good = run(["uniform-bound", "--spec", spec, "--set", "len2", "--max", "8"])[1]
    assert "BOUND=2\n" in good and "COMMAND=uniform-bound --set len2 --max 8\n" in good

    def in_a_definition_file(v):
        other = tmp_path / "count.fankit"
        other.write_text(f"a = len_ge({v})\n", encoding="utf-8")
        return run(["bar-check", "--spec", str(other), "--set", "a", "--depth", "2"])

    def in_the_budget(v):
        with monkeypatch.context() as env:
            env.setenv("FANKIT_BUDGET", v)
            return run(["bar-check", "--spec", spec, "--set", "len2", "--depth", "2"])

    sites = {
        "--depth": (lambda v: run(["bar-check", "--spec", spec, "--set", "len2", "--depth", v]),
                    3, "ERROR=usage: argument --depth: value "),
        "--oracle": (lambda v: run(["defu", "--spec", spec, "--set", "db", "--oracle", "llpo:" + v]),
                     3, "ERROR=usage: argument --oracle: oracle horizon "),
        "definition file": (in_a_definition_file, 3, "ERROR=spec: line 1, column 1"),
        "BOUND=": (lambda v: verify_text(tmp_path, spec, good.replace("BOUND=2", "BOUND=" + v)),
                   3, "ERROR=CertificateFormatError: BOUND must be a nonnegative integer, got "),
        "COMMAND=": (lambda v: verify_text(tmp_path, spec, good.replace("--max 8", "--max " + v)),
                     3, "ERROR=CertificateFormatError: COMMAND is not as the producer writes it"),
        "FANKIT_BUDGET": (in_the_budget, 2,
                          "ERROR=BudgetExceededError: FANKIT_BUDGET must be a positive integer, got "),
    }
    nines = "9" * 5000
    # a definition file reads ' 3' as a space and the count 3, and hands
    # '+', '-' and '_0' to the tokenizer, which refuses them before any
    # count is read; these digits reach the count reader
    exact = {("definition file", "\u0663"):
             "ERROR=spec: line 1, column 12: expected an integer, got '\u0663'",
             ("definition file", nines): "ERROR=spec: line 1, column 12: expected an integer, got "}
    accepted = {("definition file", " 3")}
    # When each site had a reader of its own, these cases failed: --depth
    # and --oracle accepted ' 3', '+3', '1_0' and U+0663 and answered 5000
    # nines with int()'s advice, a definition file read len_ge(U+0663) as
    # len_ge(3), and FANKIT_BUDGET=U+0663 set a budget of 3.
    for site, (call, code, text) in sites.items():
        for v in (" 3", "+3", "1_0", "\u0663", "-1", nines):
            got = call(v)
            assert "set_int_max_str_digits" not in got[1] and "invalid literal" not in got[1], got
            if (site, v) in accepted:
                assert got[1].startswith("FANKIT-CERT\nCOMMAND=bar-check"), (site, v, got)
                continue
            want = exact.get((site, v), text)
            assert got[0] == code and got[1].startswith(want), (site, v[:20], got[1][:200])
            assert got[1].count("\n") == 1, (site, v[:20], got[1][:200])


def test_reruns_are_byte_identical(tmp_path):
    spec = write_spec(tmp_path)
    for argv in (
        ["uniform-bound", "--spec", spec, "--set", "len2", "--max", "8"],
        ["find-path", "--spec", spec, "--tree", "zt", "--bits", "6"],
        ["coconvex-bound", "--spec", spec, "--bar", "cb"],
        ["defu", "--spec", spec, "--set", "db"],
    ):
        first = run(argv)
        second = run(argv)
        assert first == second


def run_module(*args: str, code: str | None = None) -> subprocess.CompletedProcess:
    """Run `python -X dev -m fankit.cli args` (or `-c code`) in a fresh
    interpreter that imports fankit from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    head = ["-c", code] if code is not None else ["-m", "fankit.cli"]
    return subprocess.run([sys.executable, "-X", "dev", *head, *args], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("setting", ["0", "640", None])
def test_a_count_has_at_most_640_digits_whatever_the_interpreter_reads(
        tmp_path, monkeypatch, setting):
    # 640 is the lowest digit limit PYTHONINTMAXSTRDIGITS accepts, so
    # under every setting fankit reads the same counts and writes them back
    spec, cert = write_spec(tmp_path, "a = len_ge(1)\n"), str(tmp_path / "cert.txt")
    code = f"""if True:
        from pathlib import Path
        from fankit.cli import run
        print(run(["bar-check", "--spec", {spec!r}, "--set", "a", "--depth", "9" * 641]))
        code, text = run(["bar-check", "--spec", {spec!r}, "--set", "a", "--depth", "9" * 640])
        Path({cert!r}).write_text(text, encoding="utf-8")
        print((code, text.partition("\\n--\\n")[0]))
        print(run(["verify", "--spec", {spec!r}, "--cert", {cert!r}]))
        """
    if setting is None:
        monkeypatch.delenv("PYTHONINTMAXSTRDIGITS", raising=False)
    else:
        monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", setting)
    done = run_module(code=code)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    refusal = (3, "ERROR=usage: argument --depth: value has 641 digits, more than fankit reads\n")
    answer = (0, f"FANKIT-CERT\nCOMMAND=bar-check --set a --depth {'9' * 640}\n"
                 "VERDICT=YES\nBOUND=1")
    assert done.stdout.splitlines() == [repr(refusal), repr(answer), repr((0, "VERIFY=OK\n"))]


def test_help_returns_its_text(tmp_path):
    # -h and --help return the help with exit 0 instead of leaving run
    for argv in (["-h"], ["--help"]):
        code, text = run(argv)
        assert code == 0 and text.startswith("usage: fankit"), text
        assert all(name in text for name in COMMANDS), text
        for name in COMMANDS:
            code, text = run([name] + argv)
            assert code == 0 and text.startswith(f"usage: fankit {name} "), text
            assert "--spec SPEC" in text and "ERROR=" not in text, text
    done = run_module("uc-bound", "--help")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == run(["uc-bound", "--help"])[1]


def test_the_cli_loads_no_argument_parser(tmp_path):
    # argv and COMMAND= are read by one loop over COMMANDS: a produce, a
    # verify, a usage error and the help load neither argparse nor gettext
    spec, cert = write_spec(tmp_path), str(tmp_path / "cert.txt")
    code = f"""if True:
        import sys
        from pathlib import Path
        from fankit.cli import run
        code, text = run(["uniform-bound", "--spec", {spec!r}, "--set", "len2", "--max", "8"])
        Path({cert!r}).write_text(text, encoding="utf-8")
        print(code, run(["verify", "--spec", {spec!r}, "--cert", {cert!r}])[0],
              run(["bar-check", "--spec", {spec!r}, "--depth=3"])[0], run(["-h"])[0])
        print(sorted({{"argparse", "gettext"}} & set(sys.modules)))
    """
    done = run_module(code=code)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 0 3 0\n[]\n", "")


def test_argv_is_read_as_command_lines_are_written(tmp_path):
    # --flag value pairs and bare switches in any order, the last of a
    # repeated flag winning; no --flag=value and no abbreviated flags
    spec = write_spec(tmp_path)
    base = ["bar-check", "--spec", spec, "--set", "len2", "--depth", "3"]
    expected = run(base)
    assert expected[0] == 0 and "COMMAND=bar-check --set len2 --depth 3\n" in expected[1]
    assert run(["bar-check", "--depth", "9", "--set", "len2", "--spec", spec,
                "--depth", "3"]) == expected
    assert run(["uc-bound", "--via-fan", "--fn", "q2", "--spec", spec]) == \
        run(["uc-bound", "--spec", spec, "--fn", "q2", "--via-fan"])
    for argv in (base[:5] + ["--depth=3"], base[:5] + ["--dep", "3"], base[:6], [],
                 ["bar-chek"] + base[1:], base + ["--via-fan"], base[:5]):
        code, text = run(argv)
        assert code == 3 and text.startswith("ERROR=usage: "), (argv, text)
    # -h in a flag's place prints the subcommand's usage; in a value's
    # place, as any flag there, it leaves the flag before it without one
    assert run(base[:5] + ["-h"] + base[5:]) == \
        (0, "usage: fankit bar-check --spec SPEC --set SET --depth DEPTH\n")
    assert run(["uc-bound", "--fn", "q2", "--help"]) == \
        (0, "usage: fankit uc-bound --spec SPEC --fn FN [--via-fan]\n")
    for value in ("-h", "--depth"):
        assert run(base[:4] + [value] + base[5:]) == \
            (3, "ERROR=usage: argument --set: expected a value\n")


def test_a_mixed_run_sequence_matches_fresh_processes(tmp_path):
    # One process running many commands, usage errors and defaults
    # between them, answers each as a fresh `python -m fankit.cli` does;
    # the fresh runs also cover main(): its stdout and exit code.
    spec = write_spec(tmp_path, BASIC_SPEC + "rt = tree(complement(closure(finite(0, 1))))\n")
    code, text = run(["find-path", "--spec", spec, "--tree", "zt", "--bits", "4"])
    assert code == 0
    cert = tmp_path / "cert.txt"
    cert.write_text(text, encoding="utf-8")
    calls = [
        ["bar-check", "--set", "len2", "--depth", "3"],
        ["bar-check", "--set", "empty", "--depth", "3"],
        ["bar-check", "--set", "len2"],                          # missing --depth
        ["uniform-bound", "--set", "ones", "--max", "3"],
        ["complete-tree", "--tree", "rt", "--depth", "2"],
        ["bogus-command"],
        ["find-path", "--tree", "zt", "--bits", "4"],            # default --oracle
        ["find-path", "--tree", "zt", "--bits", "4", "--oracle", "llpo:-5"],
        ["coconvex-bound", "--bar", "cb"],
        ["uc-bound", "--fn", "q2", "--via-fan"],
        ["uc-bound", "--fn", "q2"],
        ["uc-bound", "--fn", "q2", "--depth", "1"],              # unknown flag
        ["deco", "--fn", "q2"],
        ["defu", "--set", "db"],                                 # default --oracle
        ["bar-check", "--set", "len2", "--depth", "-1"],
        ["verify", "--cert", str(cert)],
    ]
    calls = [argv[:1] + ["--spec", spec] + argv[1:] for argv in calls] + [[]]
    in_process = [run(argv) for argv in calls + calls[::-1]]
    fresh = []
    for argv in calls:
        done = run_module(*argv)
        assert done.stderr == "", (argv, done.stderr)
        fresh.append((done.returncode, done.stdout))
    assert in_process == fresh + fresh[::-1]
    assert {code for code, _ in fresh} == {0, 1, 2, 3}
    assert (0, "VERIFY=OK\n") in fresh


# ---------------------------------------------------------------------------
# Small fuzz harness, shared with the acceptance suite.

SET_POOL = [
    "len_ge({k})",
    "bit({i},{b})",
    "prefix({w})",
    "finite({ws})",
    "closure(finite({ws}))",
    "union(len_ge({k}), bit({i},{b}))",
    "intersect(len_ge({k}), closure(finite({ws})))",
    "complement(closure(finite({ws})))",
    "stab(union(bit({i},{b}), len_ge({k})), {stab})",
]


def random_word_text(rng, max_len=3):
    n = rng.randrange(0, max_len + 1)
    return "e" if n == 0 else "".join(rng.choice("01") for _ in range(n))


def random_set_text(rng):
    tpl = rng.choice(SET_POOL)
    k = rng.randrange(0, 4)
    i = rng.randrange(0, 3)
    b = rng.randrange(2)
    w = random_word_text(rng)
    ws = ", ".join(random_word_text(rng) for _ in range(rng.randrange(1, 3)))
    return tpl.format(k=k, i=i, b=b, w=w, ws=ws, stab=max(k, i + 1))


def random_fn_text(rng, depth=0):
    if depth >= 3 or rng.random() < 0.4:
        return f"leaf({rng.randrange(4)})"
    return (f"node({rng.randrange(4)}, {random_fn_text(rng, depth + 1)}, "
            f"{random_fn_text(rng, depth + 1)})")


def fuzz_case(rng, tmp_path, idx):
    """One random definition file plus one command over it; returns argv."""
    kind = rng.choice(["bar-check", "uniform-bound", "uc-bound", "deco",
                       "complete-tree", "find-path", "coconvex-bound", "defu"])
    k = rng.randrange(0, 4)
    lines = []
    if kind in ("bar-check", "uniform-bound"):
        lines.append(f"s = {random_set_text(rng)}")
        argv = [kind, "--set", "s",
                "--depth" if kind == "bar-check" else "--max",
                str(rng.randrange(2, 7))]
    elif kind in ("uc-bound", "deco"):
        lines.append(f"f = {random_fn_text(rng)}")
        argv = [kind, "--fn", "f"]
        if kind == "uc-bound" and rng.random() < 0.5:
            argv.append("--via-fan")
    elif kind == "complete-tree":
        ws = ", ".join("1" + random_word_text(rng, 2).replace("e", "")
                       for _ in range(rng.randrange(1, 3)))
        lines.append(f"t = tree(complement(closure(finite({ws}))))")
        argv = [kind, "--tree", "t", "--depth", str(rng.randrange(1, 5))]
    elif kind == "find-path":
        choice = rng.randrange(3)
        if choice == 0:
            lines.append("t = tree(complement(finite()))")
        elif choice == 1:
            lines.append("t = tree(complement(bit(0,1)))")
        else:
            ws = ", ".join("1" + random_word_text(rng, 2).replace("e", "")
                           for _ in range(rng.randrange(1, 3)))
            lines.append(f"t = tree(complement(closure(finite({ws}))))")
        argv = [kind, "--tree", "t", "--bits", str(rng.randrange(2, 7)),
                "--oracle", "llpo:16"]
    elif kind == "coconvex-bound":
        wit = rng.choice([f"first_one_plus({k})", f"const({k})"])
        lines.append(
            f"b = bar(coconvex(stab(union(len_ge({k}), count_ones_ge(1)), {k})), {wit})")
        argv = [kind, "--bar", "b"]
    else:  # defu
        i = rng.randrange(0, 3)
        lines.append(f"d = stab(union(bit({i},{rng.randrange(2)}), len_ge({k})), "
                     f"{max(k, i + 1)})")
        argv = [kind, "--set", "d", "--oracle", "llpo:16"]
    spec_path = tmp_path / f"fuzz_{idx}.fankit"
    spec_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["--spec", str(spec_path)], argv, spec_path


def run_fuzz_case(rng, tmp_path, idx):
    spec_flag, argv, spec_path = fuzz_case(rng, tmp_path, idx)
    full = argv[:1] + spec_flag + argv[1:]
    code, text = run(full)
    assert code in (0, 1, 2), (full, text)
    assert text.startswith("FANKIT-CERT"), (full, text)
    again = run(full)
    assert again == (code, text), "reruns must be byte-identical"
    cert_path = tmp_path / f"cert_{idx}.txt"
    cert_path.write_text(text, encoding="utf-8")
    vcode, vout = run(["verify", "--spec", str(spec_path),
                       "--cert", str(cert_path)])
    assert vcode == 0, (full, text, vout)


def test_mini_fuzz_round_trip(tmp_path):
    rng = random.Random(99)
    for idx in range(60):
        run_fuzz_case(rng, tmp_path, idx)


# ---------------------------------------------------------------------------
# Certificate mutants: no traceback, and no pass for a mutant the producer
# would never write.

VERDICTS = ("YES", "NO", "UNKNOWN", "EXISTS", "NOT_EXISTS")


def command_mutants(command):
    """Forms of a COMMAND line the producer never writes."""
    sub, *tokens = command.split(" ")
    groups = []  # a flag with its value, or a switch alone
    for token in tokens:
        if token.startswith("--"):
            groups.append([token])
        else:
            groups[-1].append(token)

    def line(gs):
        return " ".join([sub] + [t for g in gs for t in g])

    yield command + " --bogus 1"
    yield command + " --via-fan x"
    yield line(groups + groups[:1])  # a repeated flag
    if len(groups) > 1:
        yield line(groups[1:] + groups[:1])
    for i, group in enumerate(groups):
        if len(group) == 2:
            yield line(groups[:i] + groups[i + 1:])  # a missing flag
            value = group[1]
            forms = ["0" + value, "+" + value] if value.isdigit() else []
            if value.startswith("llpo:"):
                forms.append("llpo:0" + value[5:])
            for form in forms:
                yield line(groups[:i] + [[group[0], form]] + groups[i + 1:])
    yield sub.upper() + command[len(sub):]


def certificate_mutants(text):
    """(mutant text, must it be rejected) pairs for one certificate."""
    lines = text.split("\n")
    end = lines.index("--")

    def with_line(i, new):
        return "\n".join(lines[:i] + new + lines[i + 1:])

    for verdict in VERDICTS:
        if lines[2] != f"VERDICT={verdict}":
            yield with_line(2, [f"VERDICT={verdict}"]), True
    for command in command_mutants(lines[1][len("COMMAND="):]):
        yield with_line(1, [f"COMMAND={command}"]), True
    keys = {line.split("=", 1)[0] for line in lines[3:end]}
    for extra in ("BOUND=1", "WITNESS=0", "ESCAPE=0", "PATH=0", "FOO=1"):
        if extra.split("=", 1)[0] not in keys:
            yield with_line(2, [lines[2], extra]), True
    for i in range(3, end):
        key, value = lines[i].split("=", 1)
        yield with_line(i, []), False
        yield with_line(i, [lines[i], lines[i]]), False
        if key == "BOUND":
            # a plain uc-bound must carry the least bound, like bar-check;
            # a --via-fan one any bound from the least on
            plain_uc = lines[1].startswith("COMMAND=uc-bound ") and \
                not lines[1].endswith(" --via-fan")
            for n in (int(value) - 1, int(value) + 1):
                yield with_line(i, [f"BOUND={n}"]), plain_uc and n >= 0
        if key == "PATH":
            yield with_line(i, [f"PATH={value[:-1] or 'e'}"]), False


def test_certificate_mutants_never_pass_or_crash(tmp_path):
    rng = random.Random(7)
    cases = [fuzz_case(rng, tmp_path, idx) for idx in range(40)]
    # the corpus rarely draws a bar-check UNKNOWN
    cases.append((["--spec", write_spec(tmp_path)], ["bar-check", "--set", "ones", "--depth", "6"],
                  tmp_path / "defs.fankit"))
    seen = set()
    for spec_flag, argv, spec_path in cases:
        code, text = run(argv[:1] + spec_flag + argv[1:])
        assert text.startswith("FANKIT-CERT"), text
        for mutant, must_fail in certificate_mutants(text):
            code, out = verify_text(tmp_path, str(spec_path), mutant)
            assert out.startswith(("VERIFY=", "ERROR=")), (mutant, out)
            assert code in (0, 1, 2, 3), (mutant, out)
            assert not (must_fail and code == 0), (mutant, out)
            seen.add((must_fail, code))
    # both rejections (exit 1) and format errors (exit 3) are reached, and
    # some harmless mutants (a larger uc-bound BOUND) still verify
    assert {(True, 1), (True, 3), (False, 0), (False, 1)} <= seen, seen
