"""Tests for the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import itertools
import os
import random
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "tests"))

import bruteforce  # noqa: E402

import fankit.cli  # noqa: E402

import gen  # noqa: E402
import loop  # noqa: E402
import refeval as R  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

KNOWN_FAILURES = {f"complete-tree thin depth={gen.KNOWN_FAILURE_DEPTH}"}


def _inputs(ops):
    return [(op.label, op.spec, op.argv, op.expect.code, op.expect.verdict, op.expect.payload)
            for op in ops]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert _inputs(gen.make_pass(workload, 7)) == _inputs(gen.make_pass(workload, 7))
    assert _inputs(gen.make_pass(workload, 7)) != _inputs(gen.make_pass(workload, 8))


# ---------------------------------------------------------------------------
# Answers known by construction agree with the brute-force evaluator on
# small sizes of the same families.

@pytest.mark.parametrize("closed", [False, True])
def test_bar_family_bound_is_n(closed):
    for n in range(1, 6):
        for p in R.words_at(3):
            e = gen._bar_family(n, p, closed)
            assert R.least_uniform_bound(e, n + 2) == n
            assert R.declared_stab(e) == max(n, 3)


def test_non_bar_escape():
    for n in (4, 5):
        for w in ("1100", "1101", "1110", "1111"):
            for depth in (n, n + 2):
                code, verdict, payload = R.expect_bar_check(gen._non_bar(n, w), depth)
                assert (code, verdict) == (1, "NO")
                assert payload == (f"ESCAPE={(w + '0' * depth)[:depth]}",)


def test_tree_levels_by_construction():
    for q in ("10", "11", "100", "111"):
        t = ("tree", ("complement", ("closure", ("finite", (q,)))))
        assert R.completed_levels(t, 6) == [
            [u for u in R.words_at(k) if not u.startswith(q)] for k in range(7)]
    for x, y in itertools.product("01", repeat=2):
        t = ("tree", ("finite", ("", x, x + y)))
        assert R.completed_levels(t, 6) == [[""], [x]] + [[x + y + "0" * (k - 2)]
                                                           for k in range(2, 7)]


def test_increasing_trees():
    rng = random.Random(3)
    for qd in range(2, 7):
        f = gen.increasing_tree(rng, qd, 10, itertools.count())
        assert R.query_depth(f) == qd
        assert R.uc_bound(f) == qd == R.via_fan_bound(f)
        assert not R.is_constant(f)
        g = gen.increasing_tree(rng, qd, 10, itertools.repeat(2))
        assert R.is_constant(g) and R.uc_bound(g) == 0


def test_oracle_path_families():
    for depth in (2, 3, 4):
        assert R.llpo_path(gen.ray_tree(depth), 8, 10) == "0" * 8
    for w in ("0", "101", "0110"):
        d = gen.unique_escape_set(w)
        outside = [u for n in range(len(w) + 4) for u in R.words_at(n) if not R.member(d, u)]
        assert outside == [w]
        assert not R.escapes(gen.full_stab_set(w, 5))
    for k in range(0, 6):
        carrier = ("stab", ("union", ("len_ge", k), ("count_ones_ge", 1)), k)
        assert R.least_uniform_bound(carrier, 8) == k


def _bits(u: tuple) -> str:
    return "".join(map(str, u))


def test_fuzz_references_against_bruteforce_module():
    """refeval agrees with the test suite's own enumerations."""
    rng = random.Random(5)
    for _ in range(200):
        s = gen._fuzz_set(rng)
        mem = lambda u, s=s: R.member(s, _bits(u))  # noqa: E731
        assert R.least_uniform_bound(s, 6) == bruteforce.brute_least_uniform_bound(mem, 6)
        f = gen._fuzz_fn(rng)
        assert R.uc_bound(f) == bruteforce.brute_uc_bound(
            lambda u, f=f: R.fn_eval(f, _bits(u))[0], R.query_depth(f))
        t = gen._pruned_tree(rng)
        assert R.completed_levels(t, 4)[4] == [
            _bits(u) for u in bruteforce.brute_level_members(
                lambda u, t=t: R.member(t, _bits(u)), 4)]


# ---------------------------------------------------------------------------
# Short runs through fankit: every op passes except the listed known failure.

def _runner(tmp_path, workload, seed=1, limit=None):
    ops = gen.make_pass(workload, seed)
    return loop.Runner(fankit.cli, ops[:limit] if limit else ops, str(tmp_path))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_short_run_passes_checks(tmp_path, workload):
    runner = _runner(tmp_path, workload)
    runner.one_pass(keep=set(range(len(runner.ops))))
    runner.rerun()
    report = runner.report()
    assert report["correct"], report["failures"]
    failing = {f["label"] for f in report["failures"]}
    assert failing <= KNOWN_FAILURES, report["failures"]
    assert report["completed"] + report["failed"] == report["attempted"] == len(runner.ops)


def test_rerun_exception_is_a_failed_op(tmp_path, monkeypatch):
    runner = _runner(tmp_path, "cli-mix", limit=1)
    runner.one_pass(keep={0})
    monkeypatch.setattr(fankit.cli, "run", lambda argv: 1 / 0)
    runner.rerun()
    report = runner.report()
    assert [(f["kind"], f["times"]) for f in report["failures"]] == [("rerun", 1)]
    assert not report["correct"]


def test_times_are_scaled_by_the_speed_samples_beside_them(tmp_path):
    runner = _runner(tmp_path, "cli-mix", limit=2)
    ref = speed.REFERENCE_S
    runner.samples = [ref, ref, 2 * ref, 2 * ref, 2 * ref]
    runner.times = {0: [(4.0, 2.0, 0.006, 0)], 1: [(4.0, 2.0, 0.006, 3)]}
    # op 0 sees samples 0-1 (reference speed), op 1 samples 2-4 (half speed)
    assert runner.scaled() == [(4.0, 2.0, 0.006), (2.0, 1.0, 0.003)]
    assert speed.beside([1.0, 2.0, 3.0, 4.0, 5.0], 2) == 3.5


def test_import_yardstick_is_outside_fankit():
    import subprocess

    code = ("import sys, fankit.cli\n"
            f"print(sorted(set({speed.IMPORT_YARDSTICK!r}) & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(BENCH), "src")})
    assert done.stdout.strip() == "[]"


def test_check_produce_rejects_wrong_answers():
    expect = gen.Expect(0, "YES", ("BOUND=3",))
    good = "FANKIT-CERT\nCOMMAND=x\nVERDICT=YES\nBOUND=3\n--\nTRACE=\nVERSION=0\n"
    assert loop.check_produce(expect, 0, good) is None
    assert loop.check_produce(expect, 0, good.replace("BOUND=3", "BOUND=4"))[0] == "wrong"
    assert loop.check_produce(expect, 2, good)[0] == "wrong"
    assert loop.check_produce(expect, 2, "ERROR=BudgetExceededError: x\n")[0] == "error"


# ---------------------------------------------------------------------------
# Tracing: work counts repeat exactly; a moved name is reported missing.

COUNT_SUFFIXES = ("_calls", "_words", "_bits")


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_traced_counts_repeat(tmp_path, workload):
    runs = []
    for k in range(2):
        runner = _runner(tmp_path, workload, seed=4, limit=16)
        out = loop.traced_run(runner, str(tmp_path / f"spans{k}.tsv"))
        runs.append({name: v for name, v in out["layers"].items()
                     if name.endswith(COUNT_SUFFIXES)})
        assert not out["missing"]
    assert runs[0] == runs[1]
    assert any(runs[0].values())


def test_missing_target_is_reported(tmp_path, monkeypatch):
    monkeypatch.setitem(spans.SPAN_TARGETS, "trees.has_descendant",
                        ("fankit.trees", "no_such_function"))
    runner = _runner(tmp_path, "oracle-path", limit=4)
    out = loop.traced_run(runner, str(tmp_path / "spans.tsv"))
    assert "trees.has_descendant" in out["missing"]
    assert out["layers"]["trees.has_descendant_calls"] is None
    assert out["layers"]["sets.member_calls"] is not None


def test_benchmark_json_lists_what_run_prints():
    import json

    import run

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    layers = {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()}
    layers["trace.overhead_ratio"] = "ratio"
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers
    assert [w["name"] for w in doc["workloads"]] == list(gen.WORKLOADS)
