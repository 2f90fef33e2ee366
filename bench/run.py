"""fankit benchmark: time to a certificate and time to re-check it.

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

Run from the root of a fankit checkout; fankit is imported from `src/`.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of one traced pass (see bench/README.md).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Exits 2 without a result when the checkout holds no fankit sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import gen
import spans
import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 10  # before the workload, and again after it; one more after each pass
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "produce_p50_ms": "ms",
    "produce_p95_ms": "ms",
    "verify_p50_ms": "ms",
    "verify_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

IMPORT_PROBE = ("import sys, time\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "t0 = time.perf_counter()\n"
                "import fankit, fankit.cli\n"
                "t1 = time.perf_counter()\n"
                f"import {', '.join(speed.IMPORT_YARDSTICK)}\n"
                "t2 = time.perf_counter()\n"
                "sys.stdout.write(f'{t1 - t0!r} {t2 - t1!r}')\n")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup_probes(count: int, deadline: float) -> list[tuple[float, float]]:
    """(seconds, seconds at reference speed) for `count` fresh interpreters
    to import fankit and its CLI; each is scaled by the import yardstick
    timed in the same interpreter (see speed.py)."""
    times = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        raw, yardstick = map(float, done.stdout.split())
        times.append((raw, raw * speed.IMPORT_REFERENCE_S / yardstick))
    return times


def run_workload(args, between_passes) -> dict:
    """Generate the pass from the seed and run it in this interpreter (one
    workload per run.py call, so a fresh one); fankit is imported only
    now, after the set-up probes."""
    sys.path.insert(0, SRC)
    import fankit.cli
    import loop

    ops = gen.make_pass(args.workload, args.seed)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        runner = loop.Runner(fankit.cli, ops, workdir)
        if args.trace:
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.tsv")
            out = loop.traced_run(runner, spans_path)
            out["spans_file"] = os.path.relpath(spans_path, ROOT)
        else:
            out = loop.timed_run(runner, args.seconds, args.seed, between_passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["pass_ops"] = len(ops)
    return out


def say(line: str) -> None:
    sys.stdout.write(f"# {line}\n")


def report_failures(out: dict) -> None:
    for f in out["failures"]:
        say(f"FAILED x{f['times']} [{f['kind']}] {f['label']}: "
            f"fankit {' '.join(f['argv'][:1] + ['--spec', 'SPEC'] + f['argv'][1:])}")
        say(f"    SPEC: {f['spec'].strip()}")
        say(f"    {f['detail']}")


def end_to_end(out: dict, setup_s: float) -> dict:
    produce, verify = out["produce_ms"], out["verify_ms"]
    values = {
        "setup_s": setup_s,
        "throughput_ops_s": out["throughput_ops_s"],
        "produce_p50_ms": statistics.median(produce),
        "produce_p95_ms": percentile(produce, 0.95),
        "verify_p50_ms": statistics.median(verify),
        "verify_p95_ms": percentile(verify, 0.95),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    say(f"{out['completed']} ops completed of {out['attempted']} attempted in "
        f"{out['passes']} passes of {out['pass_ops']} ops ({out['elapsed_s']:.1f} s); "
        f"latency over all {len(produce)} passed executions, "
        f"{min(out['executions'])}-{max(out['executions'])} of each input; "
        f"{out['reruns']} ops rerun for byte-identity")
    samples = out["speed_samples"]
    say(f"speed kernel: median {statistics.median(samples) * 1000:.4g} ms over "
        f"{len(samples)} samples (reference {speed.REFERENCE_S * 1000:.4g} ms); "
        f"unscaled produce p50 {statistics.median(out['raw_produce_ms']):.4g} ms, "
        f"verify p50 {statistics.median(out['raw_verify_ms']):.4g} ms")
    say("unscaled ops/s per pass: " + " ".join(f"{r:.4g}" for r in out["pass_rates"]))
    say(f"{'failed_ratio':<18} {out['failed'] / out['attempted']:.6f} ratio "
        f"({out['failed']} / {out['attempted']})")
    return values


def main() -> int:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "fankit", "cli.py")):
        sys.stderr.write(f"bench: no fankit sources under {SRC}; run from a fankit checkout\n")
        return 2

    say(f"fankit benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}")
    say(f"python {platform.python_version()} ({platform.python_implementation()}), "
        f"nproc {os.cpu_count()}, {platform.machine()}")
    speed.warm_up()
    try:
        # The first probe compiles bytecode and is not counted.  The probes
        # are spread over the whole run.
        setup = [] if args.trace else setup_probes(SETUP_PROBES + 1, deadline)[1:]
        out = run_workload(args, lambda: setup.extend(setup_probes(1, deadline)))
        if not args.trace:
            setup += setup_probes(SETUP_PROBES, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2
    report_failures(out)

    if args.trace:
        metrics = {name: {"value": out["layers"][name], "unit": unit}
                   for name, (unit, _) in spans.LAYER_METRICS.items()}
        metrics["trace.overhead_ratio"] = {"value": out["layers"]["trace.overhead_ratio"],
                                           "unit": "ratio"}
        say(f"one traced pass of {out['pass_ops']} ops, {out['spans']} spans "
            f"written to {out['spans_file']}")
        if out["missing"]:
            say(f"MISSING wrapper targets (metrics reported as null): "
                f"{', '.join(out['missing'])}")
    else:
        say(f"setup_s is the median of {len(setup)} import probes over the run at "
            f"reference speed (unscaled median {statistics.median(r for r, _ in setup):.4g} s)")
        values = end_to_end(out, statistics.median(s for _, s in setup))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for name, m in metrics.items():
        shown = "MISSING" if m["value"] is None else f"{m['value']:.6g}"
        say(f"{name:<34} {shown} {m['unit']}")
    say(f"wall time {time.monotonic() - started:.1f} s")
    result = {"correct": out["correct"], "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
