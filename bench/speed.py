"""Machine speed, measured by a fixed pure-Python kernel and, for set-up
time, by a fixed import.

The machine the benchmark was tuned on is a shared two-vCPU microVM whose
speed moves in spells and drifts: the same Python loop runs up to twice
as long from one minute to the next, and CPU time moves with wall time,
so the slowdown is the vCPU's, not the scheduler's.  Every op time the
benchmark reports is therefore scaled to a reference speed: it is
multiplied by `REFERENCE_S / sample`, where `sample` is this kernel's time
measured beside it.  The kernel is the benchmark's own code and never
touches fankit, so a change to fankit moves the scaled times as it moves
the raw ones, while a slow spell of the machine moves the kernel too and
cancels out.  It mixes what fankit's hot paths do (short-string slicing
and formatting, set and dict lookups, small tuples, recursion) and
imports nothing."""

from __future__ import annotations

import gc
import statistics
import time

# A round figure near the kernel's median time, in seconds, on the machine
# the benchmark was tuned on (2 vCPUs, Python 3.11.7).  Scaled times are
# what the machine takes when one kernel run takes exactly this long.
REFERENCE_S = 0.002


# The yardstick for set-up time: importing these standard-library modules,
# none of which fankit imports, in the probe's interpreter right after
# fankit.  An import slows less than the kernel in a slow spell (about 1.45x
# against 1.9x), so it gets a yardstick of its own kind.  Scaled set-up
# times are what an import takes when the yardstick takes exactly
# IMPORT_REFERENCE_S, near its median on the machine the benchmark was
# tuned on.
IMPORT_YARDSTICK = ("email.message", "configparser", "difflib", "csv", "fractions", "json",
                    "plistlib", "calendar", "statistics")
IMPORT_REFERENCE_S = 0.03


def _member(w: str, bars: frozenset, memo: dict) -> bool:
    hit = memo.get(w)
    if hit is None:
        hit = (w[-3:] in bars) or (len(w) > 2 and _member(w[:-1], bars, memo)
                                   and not _member(w[1:], bars, memo))
        memo[w] = hit
    return hit


def kernel() -> int:
    bars = frozenset(("101", "110", "0110"))
    memo: dict = {}
    found = 0
    for n in range(1, 10):
        for i in range(1 << n):
            w = format(i, f"0{n}b")
            if _member(w, bars, memo):
                found += 1
            found += len((w, n)[0]) & 1
    return found


def sample() -> float:
    """Seconds for one run of the kernel, right after an untimed run that
    brings its code and data back into the caches, so that what fankit
    left in the caches does not leak into the yardstick.  The garbage
    collector is off meanwhile for the same reason: a collection's cost
    depends on the heap fankit left behind."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        t = time.perf_counter()
        kernel()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def warm_up(count: int = 50) -> None:
    """Run the kernel until the interpreter has specialised it."""
    for _ in range(count):
        kernel()


def beside(samples: list[float], k: int) -> float:
    """Median of samples k - 1 to k + 2: the speed around the op that ran
    after sample k."""
    return statistics.median(samples[max(0, k - 1):k + 3])
