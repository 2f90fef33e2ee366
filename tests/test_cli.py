"""Definition-file parsing, CLI runs, and certificate verification."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from fankit import Bar, Leaf, Node, Tree
from fankit.certificate import Certificate
from fankit.cli import COMMANDS, run
from fankit.specfile import SpecError, parse_specdoc


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
    assert isinstance(doc.get_tree("zt"), Tree)
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


def test_nesting_too_deep_is_a_resource_error(tmp_path):
    # the 1500-node chain through names, one line nesting complement( 2000
    # deep, and a 3000-line chain of complements
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
    refusals = [run(["uc-bound", "--spec", spec, "--fn", "rev"]),
                verify_text(tmp_path, spec, certs["c11"])]  # walks all 2047 nodes
    for code, out in refusals:
        assert code == 2 and out.startswith("ERROR=BudgetExceededError: scan visited"), out


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


def test_run_coconvex_bound(tmp_path):
    code, text = run(["coconvex-bound", "--spec", write_spec(tmp_path),
                      "--bar", "cb"])
    assert code == 0
    assert "BOUND=3" in text


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
    assert_rejected(tmp_path, spec, extra, "level 4 lies outside 0..3")
    repeated = text.replace("WITNESS=3:000\n", "WITNESS=3:000\nWITNESS=1:0\n")
    assert_rejected(tmp_path, spec, repeated, "level 1 is listed twice")
    dropped = text.replace("WITNESS=2:00\n", "")
    assert_rejected(tmp_path, spec, dropped, "level 2: certificate says None")
    assert_rejected(tmp_path, spec, text.replace("VERDICT=YES", "VERDICT=BANANA"),
                    "verdict BANANA does not fit complete-tree")


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
        assert code == 3 and text.startswith("ERROR=UsageError") \
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
    assert "claim validation to horizon 8 needs 512 words, budget 256" in text, text


def test_defu_not_exists_is_rechecked_within_the_producers_budget(tmp_path, monkeypatch):
    # the producer scans levels 0..9 under one charge of 2^10 words; the
    # re-check charges the same, so it refuses exactly where the producer does
    spec = write_spec(tmp_path, "full = stab(len_ge(0), 9)\n")
    code, text = run(["defu", "--spec", spec, "--set", "full"])
    assert code == 0 and "VERDICT=NOT_EXISTS" in text
    for budget, expected in (("1023", 2), ("1024", 0)):
        monkeypatch.setenv("FANKIT_BUDGET", budget)
        assert run(["defu", "--spec", spec, "--set", "full"])[0] == expected
        code, out = verify_text(tmp_path, spec, text)
        assert code == expected, out
        assert out == ("VERIFY=OK\n" if expected == 0 else
                       f"ERROR=BudgetExceededError: scan of 1024 words exceeds budget {budget}\n")


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


def test_the_parser_is_built_on_the_first_run_only():
    code = """if True:
        import argparse
        built = []
        init = argparse.ArgumentParser.__init__
        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counting
        import fankit.cli
        print(len(built))
        fankit.cli.run(["bogus-command"])
        print(len(built) > 0)
        first = len(built)
        fankit.cli.run(["bar-check", "--spec", "missing.fankit", "--set", "a", "--depth", "1"])
        fankit.cli.run(["bogus-command"])
        print(len(built) - first)
    """
    done = run_module(code=code)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0\nTrue\n0\n", "")


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
