"""Outside-in layer tracing: wrappers installed around fankit's public
functions from the benchmark's side, without touching fankit's sources.

fankit modules bind imported names at import time (`from .words import
iter_level`), so a wrapper must replace every binding of a function, not
only its definition.  `Tracer.install` finds the function at its defining
module and swaps every fankit module attribute that holds the same
object.  A target that no longer exists is recorded as missing, and the
metrics that need it are reported as missing instead of failing the run.

Spans (name, start, end, parent, op id) are kept in memory and written
out at the end; counters are attributed to the innermost open span.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import Counter

# span name -> defining module and qualified name
SPAN_TARGETS = {
    "cli.run": ("fankit.cli", "run"),
    "specfile.load": ("fankit.specfile", "load_specdoc"),
    "sets.validate": ("fankit.sets", "validate_claims"),
    "sets.uniform_bound": ("fankit.sets", "uniform_bound"),
    "sets.bar_verdict": ("fankit.sets", "bar_verdict"),
    "trees.members_at": ("fankit.trees", "members_at"),
    "trees.complete": ("fankit.trees", "complete"),
    "trees.has_descendant": ("fankit.trees", "has_descendant"),
    "oracles.llpo": ("fankit.oracles", "llpo_bounded"),
    "fan.coconvex_bound": ("fankit.fan", "coconvex_bound"),
    "fan.bound": ("fankit.fan", "FanOracle.bound"),
    "continuity.uc_bound": ("fankit.continuity", "uc_bound_bruteforce"),
    "continuity.uc_via_fan": ("fankit.continuity", "uc_via_fan"),
    "continuity.deco": ("fankit.continuity", "deco_decide"),
    "continuity.defu": ("fankit.continuity", "defu_via_wkl"),
    "certificate.render": ("fankit.certificate", "Certificate.render"),
    "certificate.parse": ("fankit.certificate", "Certificate.parse"),
    "certificate.verify": ("fankit.certificate", "verify"),
}

# counter name -> target; counted per call, no span
COUNT_TARGETS = {
    "sets.member": ("fankit.sets", "DSet.member"),
    "continuity.residual": ("fankit.continuity", "residual"),
    "continuity.is_constant": ("fankit.continuity", "is_constant"),
    "trees.pathgen_next": ("fankit.trees", "PathGen.next"),
    "words.seq_at": ("fankit.words", "Seq.at"),
}

# Special wrappers: words yielded by iter_level, and PathGen.take spans
# split by whether the generator came from wkl_from_llpo.
ITER_LEVEL = ("fankit.words", "iter_level")
PATHGEN_TAKE = ("fankit.trees", "PathGen.take")
WKL_FROM_LLPO = ("fankit.oracles", "wkl_from_llpo")

SCAN_SPANS = ("sets.uniform_bound", "sets.bar_verdict")


def _resolve(target):
    """(owner, attribute, raw attribute value) or None when missing."""
    modname, qualname = target
    mod = sys.modules.get(modname)
    if mod is None:
        return None
    owner = mod
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(parts[-1])
    else:
        raw = getattr(owner, parts[-1], None)
    return None if raw is None else (owner, parts[-1], raw)


class Tracer:
    def __init__(self):
        self.spans: list = []      # (name, start, end, parent index, op id)
        self.counts: Counter = Counter()  # (counter, innermost span) -> calls
        self.missing: list[str] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._top = ""
        self._restore: list = []
        self._llpo_gens = weakref.WeakSet()

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        outer, self._top = self._top, name
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._top = outer
            self.spans[idx] = (name, start, end, parent, self.op_id)

    def _span_wrapper(self, name, fn):
        def wrapped(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return wrapped

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[(name, self._top)] += 1
            return fn(*args, **kwargs)
        return wrapped

    def _iter_level_wrapper(self, fn):
        counts = self.counts

        def counted(words, key):
            for u in words:
                counts[key] += 1
                yield u

        def wrapped(n):
            # call eagerly, so a budget error is raised where it was before
            return counted(fn(n), ("words.iter_level", self._top))
        return wrapped

    def _take_wrapper(self, fn):
        def wrapped(gen, n):
            name = "oracles.path" if gen in self._llpo_gens else "trees.pathgen_take"
            return self._call(name, fn, (gen, n), {})
        return wrapped

    def _wkl_wrapper(self, fn):
        def wrapped(*args, **kwargs):
            gen = fn(*args, **kwargs)
            self._llpo_gens.add(gen)
            return gen
        return wrapped

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        plan = [(t, lambda fn, n=name: self._span_wrapper(n, fn), name)
                for name, t in SPAN_TARGETS.items()]
        plan += [(t, lambda fn, n=name: self._count_wrapper(n, fn), name)
                 for name, t in COUNT_TARGETS.items()]
        plan += [(ITER_LEVEL, self._iter_level_wrapper, "words.iter_level"),
                 (PATHGEN_TAKE, self._take_wrapper, "trees.pathgen_take"),
                 (WKL_FROM_LLPO, self._wkl_wrapper, "oracles.wkl_from_llpo")]
        for target, make, name in plan:
            found = _resolve(target)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, raw = found
            if isinstance(owner, type):
                if isinstance(raw, staticmethod):
                    self._swap(owner, attr, staticmethod(make(raw.__func__)))
                else:
                    self._swap(owner, attr, make(raw))
                continue
            wrapper = make(raw)
            for modname, mod in list(sys.modules.items()):
                if modname == "fankit" or modname.startswith("fankit."):
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._swap(mod, key, wrapper)

    def _swap(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tname\tstart_s\tend_s\tparent\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{op}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    # -- analysis ----------------------------------------------------------

    def summary(self):
        """Per span name: inclusive seconds (outermost spans of that name
        only), self seconds and call count."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        incl, self_s, calls = Counter(), Counter(), Counter()
        for idx, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[idx]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                incl[name] += end - start
        return incl, self_s, calls


# per-layer metric -> (unit, span/counter names it needs)
LAYER_METRICS = {
    "cli.self_ms_per_op": ("ms", ["cli.run"]),
    "specfile.load_ms_per_op": ("ms", ["specfile.load", "sets.validate"]),
    "specfile.loads_per_op": ("count", ["specfile.load"]),
    "sets.validate_ms_per_op": ("ms", ["sets.validate"]),
    "sets.validate_member_calls": ("count", ["sets.validate", "sets.member"]),
    "sets.scan_ms": ("ms", list(SCAN_SPANS)),
    "sets.member_calls": ("count", ["sets.member"]),
    "sets.member_calls_per_level_word": ("ratio", [*SCAN_SPANS, "sets.member",
                                                   "words.iter_level"]),
    "trees.members_at_ms": ("ms", ["trees.members_at"]),
    "trees.complete_ms": ("ms", ["trees.complete"]),
    "trees.has_descendant_ms": ("ms", ["trees.has_descendant"]),
    "trees.has_descendant_calls": ("count", ["trees.has_descendant"]),
    "trees.search_member_calls": ("count", ["trees.has_descendant", "sets.member"]),
    "trees.pathgen_bits": ("count", ["trees.pathgen_next"]),
    "oracles.llpo_calls": ("count", ["oracles.llpo"]),
    "oracles.llpo_ms": ("ms", ["oracles.llpo"]),
    "oracles.path_ms": ("ms", ["trees.pathgen_take", "oracles.wkl_from_llpo"]),
    "fan.coconvex_bound_ms": ("ms", ["fan.coconvex_bound"]),
    "fan.bound_calls": ("count", ["fan.bound"]),
    "continuity.uc_bound_ms": ("ms", ["continuity.uc_bound", "continuity.uc_via_fan"]),
    "continuity.residual_calls": ("count", ["continuity.residual"]),
    "continuity.is_constant_calls": ("count", ["continuity.is_constant"]),
    "continuity.deco_ms": ("ms", ["continuity.deco"]),
    "continuity.defu_ms": ("ms", ["continuity.defu"]),
    "certificate.render_ms": ("ms", ["certificate.render"]),
    "certificate.parse_ms": ("ms", ["certificate.parse"]),
    "certificate.verify_self_ms": ("ms", ["certificate.verify"]),
    "words.iter_level_words": ("count", ["words.iter_level"]),
    "words.seq_at_calls": ("count", ["words.seq_at"]),
}


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float | None]:
    """Per-layer figures over one traced pass of n_ops ops.  `*_ms` are
    totals over the pass, `*_per_op` divide by n_ops; a metric whose
    wrapper target is missing is None."""
    incl, self_s, calls = tracer.summary()
    by_counter = Counter()
    for (name, _), n in tracer.counts.items():
        by_counter[name] += n

    def inside(counter, span_names):
        return sum(n for (name, top), n in tracer.counts.items()
                   if name == counter and top in span_names)

    def ms(seconds):
        return seconds * 1000.0

    scan_words = inside("words.iter_level", SCAN_SPANS)
    values = {
        "cli.self_ms_per_op": ms(self_s["cli.run"]) / n_ops,
        "specfile.load_ms_per_op": ms(self_s["specfile.load"]) / n_ops,
        "specfile.loads_per_op": calls["specfile.load"] / n_ops,
        "sets.validate_ms_per_op": ms(incl["sets.validate"]) / n_ops,
        "sets.validate_member_calls": inside("sets.member", ("sets.validate",)),
        "sets.scan_ms": ms(sum(incl[s] for s in SCAN_SPANS)),
        "sets.member_calls": by_counter["sets.member"],
        "sets.member_calls_per_level_word":
            inside("sets.member", SCAN_SPANS) / scan_words if scan_words else 0.0,
        "trees.members_at_ms": ms(incl["trees.members_at"]),
        "trees.complete_ms": ms(incl["trees.complete"]),
        "trees.has_descendant_ms": ms(incl["trees.has_descendant"]),
        "trees.has_descendant_calls": calls["trees.has_descendant"],
        "trees.search_member_calls": inside("sets.member", ("trees.has_descendant",)),
        "trees.pathgen_bits": by_counter["trees.pathgen_next"],
        "oracles.llpo_calls": calls["oracles.llpo"],
        "oracles.llpo_ms": ms(self_s["oracles.llpo"]),
        "oracles.path_ms": ms(incl["oracles.path"]),
        "fan.coconvex_bound_ms": ms(incl["fan.coconvex_bound"]),
        "fan.bound_calls": calls["fan.bound"],
        "continuity.uc_bound_ms": ms(incl["continuity.uc_bound"] + incl["continuity.uc_via_fan"]),
        "continuity.residual_calls": by_counter["continuity.residual"],
        "continuity.is_constant_calls": by_counter["continuity.is_constant"],
        "continuity.deco_ms": ms(incl["continuity.deco"]),
        "continuity.defu_ms": ms(incl["continuity.defu"]),
        "certificate.render_ms": ms(incl["certificate.render"]),
        "certificate.parse_ms": ms(incl["certificate.parse"]),
        "certificate.verify_self_ms": ms(self_s["certificate.verify"]),
        "words.iter_level_words": by_counter["words.iter_level"],
        "words.seq_at_calls": by_counter["words.seq_at"],
    }
    missing = set(tracer.missing)
    return {name: (None if missing.intersection(needs) else values[name])
            for name, (_, needs) in LAYER_METRICS.items()}
