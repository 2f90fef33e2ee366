"""Command-line front end: run checks and reductions against a definition
file and emit replayable certificates.

Exit codes: 0 YES/decided, 1 NO/counterexample/failed re-check,
2 UNKNOWN/resource, 3 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable

from .certificate import Certificate, CertificateFormatError, verify
from .continuity import deco_decide, defu_via_wkl, path_modulus, \
    uc_bound_bruteforce, uc_via_fan
from .errors import (BudgetExceededError, CertificateError, FankitError,
                     FuelError, InconsistencyError, OutOfRangeError,
                     PreconditionError, WitnessError)
from .fan import coconvex_bound, fan_bruteforce
from .oracles import WKLOracle, llpo_bounded_oracle, wkl_from_llpo, \
    wkl_oracle_from_llpo
from .sets import Outcome, bar_verdict, uniform_bound
from .specfile import SpecDoc, SpecError, load_specdoc
from .trees import complete, tree_levels
from .words import format_word, restrict

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3


class UsageError(FankitError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit; raise instead
        raise UsageError(message)


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _oracle_horizon(text: str) -> int:
    if not text.startswith("llpo:"):
        raise UsageError(f"unsupported oracle {text!r}; use llpo:H")
    try:
        horizon = int(text[len("llpo:"):])
    except ValueError as exc:
        raise UsageError(f"bad oracle horizon in {text!r}") from exc
    if horizon < 0:
        raise UsageError(f"oracle horizon must be nonnegative, got {horizon}")
    return horizon


def _do_bar_check(args, doc) -> tuple[int, Certificate]:
    carrier = doc.get_set(args.set)
    verdict = bar_verdict(carrier, args.depth)
    command = f"bar-check --set {args.set} --depth {args.depth}"
    if verdict.outcome is Outcome.YES:
        return EXIT_YES, Certificate(command, "YES", [("BOUND", str(verdict.bound))])
    if verdict.outcome is Outcome.NO:
        escape = format_word(restrict(verdict.escape, args.depth))
        return EXIT_NO, Certificate(command, "NO", [("ESCAPE", escape)])
    return EXIT_UNKNOWN, Certificate(command, "UNKNOWN", [("BOUND", str(verdict.depth))])


def _do_uniform_bound(args, doc) -> tuple[int, Certificate]:
    carrier = doc.get_set(args.set)
    verdict = uniform_bound(carrier, args.max)
    command = f"uniform-bound --set {args.set} --max {args.max}"
    if verdict.outcome is Outcome.YES:
        return EXIT_YES, Certificate(command, "YES", [("BOUND", str(verdict.bound))])
    return EXIT_UNKNOWN, Certificate(command, "UNKNOWN", [("BOUND", str(verdict.depth))])


def _do_complete_tree(args, doc) -> tuple[int, Certificate]:
    t = doc.get_tree(args.tree)
    completed = complete(t)
    command = f"complete-tree --tree {args.tree} --depth {args.depth}"
    payload = [("WITNESS", f"{k}:{' '.join(format_word(u) for u in members)}")
               for k, members in enumerate(tree_levels(completed, args.depth))]
    return EXIT_YES, Certificate(command, "YES", payload)


def _do_find_path(args, doc) -> tuple[int, Certificate]:
    t = doc.get_tree(args.tree)
    horizon = _oracle_horizon(args.oracle)
    gen = wkl_from_llpo(t, llpo_bounded_oracle(horizon), fuel=max(64, args.bits))
    path = gen.take(args.bits)
    command = f"find-path --tree {args.tree} --bits {args.bits} --oracle llpo:{horizon}"
    cert = Certificate(command, "YES", [("PATH", format_word(path))],
                       trace=";".join(gen.trace))
    return EXIT_YES, cert


def _do_coconvex_bound(args, doc) -> tuple[int, Certificate]:
    b = doc.get_bar(args.bar)
    n = coconvex_bound(b)
    command = f"coconvex-bound --bar {args.bar}"
    return EXIT_YES, Certificate(command, "YES", [("BOUND", str(n))])


def _do_uc_bound(args, doc) -> tuple[int, Certificate]:
    f = doc.get_functional(args.fn)
    command = f"uc-bound --fn {args.fn}"
    if args.via_fan:
        fan = fan_bruteforce(max_n=32)
        n = uc_via_fan(f, path_modulus(f), fan)
        trace = f"fan[{fan.tag}]={n}"
    else:
        n = uc_bound_bruteforce(f)
        trace = ""
    return EXIT_YES, Certificate(command, "YES", [("BOUND", str(n))], trace=trace)


def _do_deco(args, doc) -> tuple[int, Certificate]:
    f = doc.get_functional(args.fn)
    verdict = deco_decide(f)
    command = f"deco --fn {args.fn}"
    if verdict.exists:
        left, right = verdict.witnesses
        # deco witnesses are finite prefixes padded with zeros
        pair = f"{format_word(left.prefix)}:{format_word(right.prefix)}"
        return EXIT_YES, Certificate(command, "EXISTS", [("WITNESS", pair)])
    return EXIT_YES, Certificate(command, "NOT_EXISTS", [])


def _do_defu(args, doc) -> tuple[int, Certificate]:
    d = doc.get_set(args.set)
    horizon = _oracle_horizon(args.oracle)
    captured = []
    base = wkl_oracle_from_llpo(llpo_bounded_oracle(horizon))

    def solve(t):
        gen = base.solve(t)
        captured.append(gen)
        return gen

    verdict = defu_via_wkl(d, WKLOracle(solve, tag=base.tag))
    command = f"defu --set {args.set} --oracle llpo:{horizon}"
    trace = ";".join(captured[0].trace) if captured else ""
    if verdict.exists:
        return EXIT_YES, Certificate(command, "EXISTS",
                                     [("WITNESS", format_word(verdict.witness))],
                                     trace=trace)
    return EXIT_YES, Certificate(command, "NOT_EXISTS", [], trace=trace)


def _do_verify(args, doc) -> tuple[int, str]:
    try:
        with open(args.cert, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read certificate: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CertificateFormatError(f"certificate is not UTF-8 text: {exc.reason}") from exc
    cert = Certificate.parse(text)
    ok, report = verify(cert, doc)
    if ok:
        return EXIT_YES, "VERIFY=OK\n"
    lines = "\n".join("DIFF=" + line for line in report.splitlines())
    return EXIT_NO, f"VERIFY=FAIL\n{lines}\n"


class Command:
    """One subcommand: its flags after --spec, as keyword arguments of
    argparse's add_argument, and the step that answers it from the parsed
    arguments and the loaded definition file (a certificate, or the
    verify report).  A plain class: a dataclass would cost every import
    of the CLI about a millisecond."""

    __slots__ = ("flags", "step")

    def __init__(self, flags: dict[str, dict],
                 step: Callable[[argparse.Namespace, SpecDoc], tuple[int, Certificate | str]]):
        self.flags = flags
        self.step = step


_NAME = {"required": True}
_COUNT = {"type": nonnegative_int, "required": True}
_ORACLE = {"default": "llpo:16"}

COMMANDS: dict[str, Command] = {
    "bar-check": Command({"--set": _NAME, "--depth": _COUNT}, _do_bar_check),
    "uniform-bound": Command({"--set": _NAME, "--max": _COUNT}, _do_uniform_bound),
    "complete-tree": Command({"--tree": _NAME, "--depth": _COUNT}, _do_complete_tree),
    "find-path": Command({"--tree": _NAME, "--bits": _COUNT, "--oracle": _ORACLE},
                         _do_find_path),
    "coconvex-bound": Command({"--bar": _NAME}, _do_coconvex_bound),
    "uc-bound": Command({"--fn": _NAME, "--via-fan": {"action": "store_true"}},
                        _do_uc_bound),
    "deco": Command({"--fn": _NAME}, _do_deco),
    "defu": Command({"--set": _NAME, "--oracle": _ORACLE}, _do_defu),
    "verify": Command({"--cert": _NAME}, _do_verify),
}


@functools.cache
def _parser() -> _Parser:
    """The parser for COMMANDS.  Built on the first run, not at import, so
    importing the module stays cheap; every later run reuses it."""
    parser = _Parser(prog="fankit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True, help="definition file")
        for flag, options in command.flags.items():
            p.add_argument(flag, **options)
    return parser


def run(argv: list[str]) -> tuple[int, str]:
    """Execute one command line; returns (exit code, certificate text)."""
    try:
        args = _parser().parse_args(argv)
    except UsageError as exc:
        return EXIT_USAGE, f"ERROR=usage: {exc}\n"
    try:
        doc = load_specdoc(args.spec)
    except (SpecError, OSError) as exc:
        return EXIT_USAGE, f"ERROR=spec: {exc}\n"
    except BudgetExceededError as exc:
        return EXIT_UNKNOWN, f"ERROR={type(exc).__name__}: {exc}\n"
    try:
        code, out = COMMANDS[args.command].step(args, doc)
        return code, out.render() if isinstance(out, Certificate) else out
    except (UsageError, PreconditionError, SpecError, OutOfRangeError,
            CertificateFormatError) as exc:
        return EXIT_USAGE, f"ERROR={type(exc).__name__}: {exc}\n"
    except (BudgetExceededError, FuelError) as exc:
        return EXIT_UNKNOWN, f"ERROR={type(exc).__name__}: {exc}\n"
    except (CertificateError, InconsistencyError, WitnessError) as exc:
        return EXIT_NO, f"ERROR={type(exc).__name__}: {exc}\n"


def main() -> None:
    code, text = run(sys.argv[1:])
    sys.stdout.write(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
