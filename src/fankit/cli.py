"""Command-line front end: run checks and reductions against a definition
file and emit replayable certificates.

Exit codes: 0 YES/decided, 1 NO/counterexample/failed re-check,
2 UNKNOWN/resource, 3 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import namedtuple
from contextvars import copy_context

from ._budget import RUN_METER, Meter, check_depth
from .certificate import (Certificate, CertificateFormatError, _count, check_bar_check,
                          check_coconvex_bound, check_complete_tree, check_deco,
                          check_defu, check_find_path, check_uc_bound,
                          check_uniform_bound, level_listing, verify)
from .continuity import deco_decide, defu_via_wkl, path_modulus, query_depth, \
    uc_bound_bruteforce, uc_via_fan
from .errors import (BudgetExceededError, CertificateError, FankitError,
                     FuelError, InconsistencyError, OutOfRangeError,
                     PreconditionError, WitnessError)
from .fan import coconvex_bound, fan_bruteforce
from .oracles import WKLOracle, llpo_bounded_oracle, wkl_from_llpo, \
    wkl_oracle_from_llpo
from .sets import bar_verdict, uniform_bound
from .specfile import SpecError, load_specdoc
from .words import format_word, restrict

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3


class UsageError(FankitError):
    pass


class _Help(Exception):
    """-h or --help: the help text, which run returns with exit 0."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit; raise instead
        raise UsageError(message)

    def print_help(self, file=None):  # argparse would print and sys.exit
        raise _Help(self.format_help())


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


def _do_scan(doc, name, limit, scan):
    """The produce step of bar-check and uniform-bound: the verdict of
    scan(set, limit) and its payload, as _check_scan reads them."""
    verdict = scan(doc.get_set(name), limit)
    if verdict.is_no:
        return "NO", [("ESCAPE", format_word(restrict(verdict.escape, limit)))], ""
    bound = verdict.depth if verdict.is_unknown else verdict.bound
    return verdict.outcome.value, [("BOUND", str(bound))], ""


def _do_bar_check(doc, name, depth):
    return _do_scan(doc, name, depth, bar_verdict)


def _do_uniform_bound(doc, name, limit):
    return _do_scan(doc, name, limit, uniform_bound)


def _do_complete_tree(doc, name, depth):
    return "YES", [("WITNESS", value) for value in level_listing(doc.get_tree(name), depth)], ""


def _do_find_path(doc, name, bits, horizon):
    check_depth(bits, "find-path")
    gen = wkl_from_llpo(doc.get_tree(name), llpo_bounded_oracle(horizon), fuel=max(64, bits))
    path = gen.take(bits)
    return "YES", [("PATH", format_word(path))], ";".join(gen.trace)


def _do_coconvex_bound(doc, name):
    return "YES", [("BOUND", str(coconvex_bound(doc.get_bar(name))))], ""


def _do_uc_bound(doc, name, via_fan):
    f = doc.get_functional(name)
    if via_fan:
        # every word as long as the query depth is in the modulus's bar
        fan = fan_bruteforce(max_n=query_depth(f))
        n = uc_via_fan(f, path_modulus(f), fan)
        return "YES", [("BOUND", str(n))], f"fan[{fan.tag}]={n}"
    return "YES", [("BOUND", str(uc_bound_bruteforce(f)))], ""


def _do_deco(doc, name):
    verdict = deco_decide(doc.get_functional(name))
    if verdict.exists:
        left, right = verdict.witnesses
        # deco witnesses are finite prefixes padded with zeros
        pair = f"{format_word(left.prefix)}:{format_word(right.prefix)}"
        return "EXISTS", [("WITNESS", pair)], ""
    return "NOT_EXISTS", [], ""


def _do_defu(doc, name, horizon):
    d = doc.get_set(name)
    captured = []
    base = wkl_oracle_from_llpo(llpo_bounded_oracle(horizon))

    def solve(t):
        gen = base.solve(t)
        captured.append(gen)
        return gen

    verdict = defu_via_wkl(d, WKLOracle(solve, tag=base.tag))
    trace = ";".join(captured[0].trace) if captured else ""
    if verdict.exists:
        return "EXISTS", [("WITNESS", format_word(verdict.witness))], trace
    return "NOT_EXISTS", [], trace


def _do_verify(doc, path) -> tuple[int, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read certificate: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CertificateFormatError(f"certificate is not UTF-8 text: {exc.reason}") from exc
    cert = Certificate.parse(text)
    command, values = _read_command(cert.command)
    ok, report = verify(cert, doc, command.check, values, command.verdicts)
    if ok:
        return EXIT_YES, "VERIFY=OK\n"
    lines = "\n".join("DIFF=" + line for line in report.splitlines())
    return EXIT_NO, f"VERIFY=FAIL\n{lines}\n"


# One kind of flag: its argparse options, how the parsed text becomes the
# value the steps see (take), and how COMMAND= writes that value (show)
# and reads it back (read, from the text and the flag, as strictly as _count).
Flag = namedtuple("Flag", "options take show read")
_NAME = Flag({"required": True}, str, str, lambda text, flag: text)
_COUNT = Flag({"type": nonnegative_int, "required": True}, int, str, _count)
_ORACLE = Flag({"default": "llpo:16"}, _oracle_horizon, "llpo:{}".format,
              lambda text, flag: _count(text.removeprefix("llpo:"), flag))
_SWITCH = Flag({"action": "store_true"}, bool, None, None)  # written only when set

# One subcommand: its flags after --spec, in COMMAND= order; the verdicts
# its step writes, with the payload keys of each; the step, called with the
# definition file and the flag values, which returns (verdict, payload,
# trace), or for verify (exit code, report); and the re-check verify runs
# on its certificates.
Command = namedtuple("Command", "flags verdicts step check", defaults=(None,))

COMMANDS: dict[str, Command] = {
    "bar-check": Command({"--set": _NAME, "--depth": _COUNT},
                         {"YES": ("BOUND",), "NO": ("ESCAPE",), "UNKNOWN": ("BOUND",)},
                         _do_bar_check, check_bar_check),
    "uniform-bound": Command({"--set": _NAME, "--max": _COUNT},
                             {"YES": ("BOUND",), "UNKNOWN": ("BOUND",)},
                             _do_uniform_bound, check_uniform_bound),
    "complete-tree": Command({"--tree": _NAME, "--depth": _COUNT}, {"YES": ("WITNESS",)},
                             _do_complete_tree, check_complete_tree),
    "find-path": Command({"--tree": _NAME, "--bits": _COUNT, "--oracle": _ORACLE},
                         {"YES": ("PATH",)}, _do_find_path, check_find_path),
    "coconvex-bound": Command({"--bar": _NAME}, {"YES": ("BOUND",)},
                              _do_coconvex_bound, check_coconvex_bound),
    "uc-bound": Command({"--fn": _NAME, "--via-fan": _SWITCH}, {"YES": ("BOUND",)},
                        _do_uc_bound, check_uc_bound),
    "deco": Command({"--fn": _NAME}, {"EXISTS": ("WITNESS",), "NOT_EXISTS": ()},
                    _do_deco, check_deco),
    "defu": Command({"--set": _NAME, "--oracle": _ORACLE},
                    {"EXISTS": ("WITNESS",), "NOT_EXISTS": ()}, _do_defu, check_defu),
    "verify": Command({"--cert": _NAME}, {}, _do_verify),
}

EXIT_CODES = {"YES": EXIT_YES, "EXISTS": EXIT_YES, "NOT_EXISTS": EXIT_YES,
              "NO": EXIT_NO, "UNKNOWN": EXIT_UNKNOWN}


def _command_line(name: str, command: Command, values: list) -> str:
    """COMMAND=: the subcommand, then each flag and its value in table order."""
    words = [name]
    for (flag, kind), value in zip(command.flags.items(), values):
        if kind is not _SWITCH:
            words += (flag, kind.show(value))
        elif value:
            words.append(flag)
    return " ".join(words)


def _read_command(line: str) -> tuple[Command, list]:
    """The record and flag values of a COMMAND= line.  A line the values do
    not write back byte for byte (an unknown, repeated, reordered or missing
    flag, a number written otherwise) is not the producer's: a format error."""
    name, *tokens = line.split(" ")
    command = COMMANDS.get(name)
    if command is None or command.check is None:
        raise CertificateFormatError(f"unknown command {name!r:.40}")
    found = {}
    rest = iter(tokens)
    for token in rest:
        kind = command.flags.get(token)
        if kind is not None:
            found[token] = True if kind is _SWITCH else kind.read(next(rest, ""), token)
    values = [found.get(flag) for flag in command.flags]
    if _command_line(name, command, values) != line:
        raise CertificateFormatError(f"COMMAND is not as the producer writes it: {line!r:.80}")
    return command, values


@functools.cache
def _parser() -> _Parser:
    """The parser for COMMANDS.  Built on the first run, not at import, so
    importing the module stays cheap; every later run reuses it."""
    parser = _Parser(prog="fankit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True, help="definition file")
        for flag, kind in command.flags.items():
            p.add_argument(flag, **kind.options)
    return parser


def run(argv: list[str]) -> tuple[int, str]:
    """Execute one command line; returns (exit code, certificate text)."""
    return copy_context().run(_run, argv)  # the meter _run sets ends with the run


def _run(argv: list[str]) -> tuple[int, str]:
    try:
        args = _parser().parse_args(argv)
    except UsageError as exc:
        return EXIT_USAGE, f"ERROR=usage: {exc}\n"
    except _Help as help_text:
        return EXIT_YES, str(help_text)
    try:
        RUN_METER.set(Meter())  # every scan of the run charges this one meter
        doc = load_specdoc(args.spec)
    except (SpecError, OSError) as exc:
        return EXIT_USAGE, f"ERROR=spec: {exc}\n"
    except (BudgetExceededError, RecursionError) as exc:
        return EXIT_UNKNOWN, f"ERROR={type(exc).__name__}: {exc}\n"
    command = COMMANDS[args.command]
    try:
        values = [kind.take(getattr(args, flag[2:].replace("-", "_")))
                  for flag, kind in command.flags.items()]
        if command.check is None:
            return command.step(doc, *values)
        verdict, payload, trace = command.step(doc, *values)
        cert = Certificate(_command_line(args.command, command, values), verdict, payload, trace)
        return EXIT_CODES[verdict], cert.render()
    except (UsageError, PreconditionError, SpecError, OutOfRangeError,
            CertificateFormatError) as exc:
        return EXIT_USAGE, f"ERROR={type(exc).__name__}: {exc}\n"
    except (BudgetExceededError, FuelError, RecursionError) as exc:  # nesting too deep
        return EXIT_UNKNOWN, f"ERROR={type(exc).__name__}: {exc}\n"
    except (CertificateError, InconsistencyError, WitnessError) as exc:
        return EXIT_NO, f"ERROR={type(exc).__name__}: {exc}\n"


def main() -> None:
    code, text = run(sys.argv[1:])
    sys.stdout.write(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
