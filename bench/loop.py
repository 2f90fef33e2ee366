"""The timed and traced loops: run a pass of ops as produce + verify
through `fankit.cli.run` and check every answer.

Load is a closed loop with one client: each op is a produce call, the
certificate written to a file, and a `verify` call on it; the next op
starts when the previous one ends.  No extra threads or processes.
"""

from __future__ import annotations

import gc
import math
import os
import random
import resource
import statistics
import time
from collections import Counter

import gen
import spans
import speed

RERUN_SHARE = 0.05
SAMPLE_EVERY_S = 0.02  # least op time between two speed samples
WRONG_KINDS = ("wrong", "verify", "rerun")


def check_produce(expect: gen.Expect, code: int, text: str):
    """None when the produced certificate matches the reference, else
    (kind, detail); kind "error" is a clean refusal (ERROR= line), the
    other kinds are wrong answers."""
    if text.startswith("ERROR="):
        return "error", f"exit {code}: {text.strip()}"
    lines = text.split("\n")
    if lines[0] != "FANKIT-CERT" or "--" not in lines or len(lines) < 3:
        return "wrong", f"exit {code}: not a certificate: {text[:200]!r}"
    verdict = lines[2]
    payload = lines[3:lines.index("--")]
    if verdict != f"VERDICT={expect.verdict}" or code != expect.code:
        return "wrong", f"exit {code}, {verdict}; expected exit {expect.code}, " \
                        f"VERDICT={expect.verdict}"
    if expect.payload is not None and tuple(payload) != expect.payload:
        return "wrong", f"payload {_clip(payload)} != expected {_clip(expect.payload)}"
    if expect.check is not None:
        problem = expect.check(payload)
        if problem:
            return "wrong", problem
    return None


def _clip(lines) -> str:
    text = repr(list(lines))
    return text if len(text) <= 200 else text[:200] + "..."


class Runner:
    def __init__(self, cli, ops: list[gen.Op], workdir: str):
        self.cli = cli  # the module: calls look up cli.run, so a wrapper applies
        self.ops = ops
        self.cert = os.path.join(workdir, "cert.txt")
        self.specs = []
        for i, op in enumerate(ops):
            path = os.path.join(workdir, f"spec_{i}.fankit")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(op.spec)
            self.specs.append(path)
        self.reset()

    def reset(self) -> None:
        # op -> (produce ms, verify ms, busy s, speed sample index) per
        # passed execution
        self.times: dict[int, list[tuple[float, float, float, int]]] = {}
        self.samples: list[float] = []  # speed.sample() before recorded ops
        self.sampled_at = -math.inf
        self.busy_s = 0.0
        self.attempted = 0
        self.completed = 0
        self.failures: Counter = Counter()   # (op index, kind, detail) -> times
        self.first_text: dict[int, str] = {}

    def produce(self, i: int):
        op = self.ops[i]
        return self.cli.run([op.argv[0], "--spec", self.specs[i], *op.argv[1:]])

    def one(self, i: int, record: bool = True, keep: bool = False) -> None:
        """Run op i as produce + write + verify and check it.  A recorded
        op is preceded by a sample of the machine's speed when the last one
        is SAMPLE_EVERY_S old."""
        op = self.ops[i]
        if record and time.perf_counter() - self.sampled_at >= SAMPLE_EVERY_S:
            self.samples.append(speed.sample())
            self.sampled_at = time.perf_counter()
        t0 = time.perf_counter()
        try:
            code, text = self.produce(i)
            t1 = time.perf_counter()
            failure = check_produce(op.expect, code, text)
            t2 = time.perf_counter()
            if failure is None:
                with open(self.cert, "w", encoding="utf-8") as fh:
                    fh.write(text)
                vcode, vtext = self.cli.run(["verify", "--spec", self.specs[i],
                                         "--cert", self.cert])
                t3 = time.perf_counter()
                if vcode != 0 or vtext != "VERIFY=OK\n":
                    failure = "verify", f"exit {vcode}: {vtext.strip()[:200]}"
            else:
                t3 = t2
        except Exception as exc:  # a traceback out of cli.run is a failed op
            t1 = t2 = t3 = time.perf_counter()
            failure = "exception", f"{type(exc).__name__}: {exc}"
        if not record:
            return
        busy = (t1 - t0) + (t3 - t2)
        self.attempted += 1
        self.busy_s += busy
        if failure is not None:
            self.failures[(i, *failure)] += 1
            return
        self.completed += 1
        self.times.setdefault(i, []).append(((t1 - t0) * 1000.0, (t3 - t2) * 1000.0, busy,
                                             len(self.samples) - 1))
        if keep and i not in self.first_text:
            self.first_text[i] = text

    def warm_up(self) -> None:
        """One untimed pass, with a full garbage collection after each op:
        the peak RSS taken after it is the set-up plus the costliest op's
        live memory, and not cyclic garbage left over from earlier ops,
        whose amount depends on where the collector's counts fall (it
        split the peak into levels 12% apart by seed)."""
        for i in range(len(self.ops)):
            self.one(i, record=False)
            gc.collect()

    def one_pass(self, keep=()) -> None:
        for i in range(len(self.ops)):
            self.one(i, keep=i in keep)

    def rerun(self) -> int:
        """Re-produce the kept ops; each answer must be byte-identical."""
        for i, text in self.first_text.items():
            try:
                again = self.produce(i)[1]
            except Exception as exc:
                self.failures[(i, "rerun", f"{type(exc).__name__}: {exc}")] += 1
                continue
            if again != text:
                self.failures[(i, "rerun", "rerun output differs from the first run")] += 1
        return len(self.first_text)

    def throughput(self) -> float:
        """Passed executions per second of busy time at reference speed."""
        busy = [x[2] for x in self.scaled()]
        return len(busy) / sum(busy) if busy else 0.0

    def scaled(self) -> list[tuple[float, float, float]]:
        """(produce ms, verify ms, busy s) of every passed execution at
        reference speed: each scaled by the speed samples taken just
        before and after it (see speed.py)."""
        out = []
        for runs in self.times.values():
            for produce_ms, verify_ms, busy_s, k in runs:
                scale = speed.REFERENCE_S / speed.beside(self.samples, k)
                out.append((produce_ms * scale, verify_ms * scale, busy_s * scale))
        return out

    def report(self) -> dict:
        failures = []
        for (i, kind, detail), times in sorted(self.failures.items()):
            op = self.ops[i]
            failures.append({"label": op.label, "argv": list(op.argv), "spec": op.spec,
                             "kind": kind, "detail": detail, "times": times})
        scaled = self.scaled()
        raw = [x for runs in self.times.values() for x in runs]
        return {
            "attempted": self.attempted,
            "failed": sum(self.failures.values()),
            "correct": not any(k in WRONG_KINDS for (_, k, _) in self.failures),
            "failures": failures,
            "produce_ms": [x[0] for x in scaled],
            "verify_ms": [x[1] for x in scaled],
            "raw_produce_ms": [x[0] for x in raw],
            "raw_verify_ms": [x[1] for x in raw],
            "speed_samples": list(self.samples),
            "executions": [len(t) for t in self.times.values()],
            "completed": self.completed,
        }


def timed_run(runner: Runner, seconds: float, seed: int, between_passes) -> dict:
    """Whole passes for about `seconds` of op time; `between_passes()` runs
    after each pass, outside the op time."""
    n = len(runner.ops)
    runner.warm_up()
    # peak RSS over set-up and the untimed pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rng = random.Random(f"rerun:{seed}")
    keep = set(rng.sample(range(n), max(1, round(n * RERUN_SHARE))))
    start = time.perf_counter()
    paused = 0.0
    rates = []
    while True:  # whole passes, stopping at the boundary nearest `seconds`
        completed, busy = runner.completed, runner.busy_s
        runner.one_pass(keep)
        rates.append((runner.completed - completed) / (runner.busy_s - busy))
        t = time.perf_counter()
        between_passes()
        paused += time.perf_counter() - t
        elapsed = time.perf_counter() - start - paused
        if elapsed + elapsed / len(rates) / 2 >= seconds:
            break
    reruns = runner.rerun()
    out = runner.report()
    out["throughput_ops_s"] = runner.throughput()
    out["reruns"] = reruns
    out["passes"] = len(rates)
    out["pass_rates"] = rates
    out["elapsed_s"] = elapsed
    out["peak_rss_mb"] = peak_rss_mb
    return out


def traced_run(runner: Runner, spans_path: str) -> dict:
    runner.warm_up()  # so both timed passes run warm
    runner.one_pass()
    untraced = runner.throughput()
    runner.reset()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for i in range(len(runner.ops)):
            tracer.op_id = i
            runner.one(i)
    finally:
        tracer.uninstall()
    traced = runner.throughput()
    tracer.write(spans_path)
    out = runner.report()
    metrics = spans.layer_metrics(tracer, len(runner.ops))
    metrics["trace.overhead_ratio"] = untraced / traced if traced > 0 else None
    out["layers"] = metrics
    out["missing"] = tracer.missing
    out["spans"] = len(tracer.spans)
    return out

