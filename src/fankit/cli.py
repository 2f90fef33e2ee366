"""Command-line front end: run checks and reductions against a definition
file and emit replayable certificates.

Exit codes: 0 YES/decided, 1 NO/counterexample/failed re-check,
2 UNKNOWN/resource, 3 usage or parse error.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from contextvars import copy_context

from ._budget import RUN_METER, Meter, check_depth, read_count
from .certificate import (Certificate, CertificateFormatError, check_bar_check,
                          check_coconvex_bound, check_complete_tree, check_deco,
                          check_defu, check_find_path, check_uc_bound,
                          check_uniform_bound, verify)
from .continuity import deco_decide, defu_via_wkl, path_modulus, query_depth, \
    uc_bound_bruteforce, uc_via_fan
from .errors import (BudgetExceededError, CertificateError, FankitError,
                     InconsistencyError, OutOfRangeError, PreconditionError,
                     WitnessError)
from .fan import coconvex_bound, fan_bruteforce
from .oracles import WKLOracle, llpo_bounded_oracle, wkl_from_llpo, \
    wkl_oracle_from_llpo
from .sets import bar_verdict, uniform_bound
from .specfile import SpecError, load_specdoc
from .trees import level_listing
from .words import format_word, restrict

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3


class UsageError(FankitError):
    pass


def _oracle_horizon(text: str) -> int:
    if not text.startswith("llpo:"):
        raise ValueError(f"unsupported oracle {text!r}; use llpo:H")
    return read_count(text[len("llpo:"):], "oracle horizon")


def _do_scan(doc, name, limit, scan):
    """bar-check and uniform-bound: scan(set, limit)'s verdict and payload, for _check_scan."""
    verdict = scan(doc.get_set(name), limit)
    if verdict.is_no:
        return "NO", [("ESCAPE", format_word(restrict(verdict.escape, limit)))], ""
    bound = verdict.depth if verdict.is_unknown else verdict.bound
    return verdict.outcome.value, [("BOUND", str(bound))], ""


def _do_complete_tree(doc, name, depth):
    return "YES", [("WITNESS", value) for value in level_listing(doc.get_tree(name), depth)], ""


def _do_find_path(doc, name, bits, horizon):
    check_depth(bits, "find-path")
    gen = wkl_from_llpo(doc.get_tree(name), llpo_bounded_oracle(horizon))
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


# One kind of flag: how its text becomes the value the steps see (take,
# raising ValueError on text it refuses), how COMMAND= writes that value
# (show), and its value when the flag is absent (default; None: required).
Flag = namedtuple("Flag", "take show default")
_NAME = Flag(str, str, None)
_COUNT = Flag(read_count, str, None)
_ORACLE = Flag(_oracle_horizon, "llpo:{}".format, 16)
_SWITCH = Flag(None, None, False)  # bare; written only when set
_HELP = Flag(None, None, False)  # bare; argv only: ends the walk with the usage

# One subcommand: its flags after --spec, in COMMAND= order; the verdicts its
# step writes, with the payload keys of each; the step, called with the
# definition file and the flag values, returning (verdict, payload, trace), or
# for verify (exit code, report); and the re-check verify runs on its output.
Command = namedtuple("Command", "flags verdicts step check", defaults=(None,))

COMMANDS: dict[str, Command] = {
    "bar-check": Command({"--set": _NAME, "--depth": _COUNT},
                         {"YES": ("BOUND",), "NO": ("ESCAPE",), "UNKNOWN": ("BOUND",)},
                         lambda doc, name, depth: _do_scan(doc, name, depth, bar_verdict),
                         check_bar_check),
    "uniform-bound": Command({"--set": _NAME, "--max": _COUNT},
                             {"YES": ("BOUND",), "UNKNOWN": ("BOUND",)},
                             lambda doc, name, limit: _do_scan(doc, name, limit, uniform_bound),
                             check_uniform_bound),
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


def _read(name: str, tokens: list[str], extra: dict) -> tuple[Command, list | None]:
    """The record of subcommand `name` and the values of the flags of `extra`
    and then of the record, from `--flag value` pairs and bare switches in
    any order, a repeated flag keeping its last value.  A help flag ends the
    walk, with no values; anything else the reader refuses is a usage error."""
    command = COMMANDS.get(name)
    if command is None:
        raise UsageError(f"unknown command {name!r:.40}; fankit -h lists them")
    flags = extra | command.flags
    found, rest = {}, iter(tokens)
    for token in rest:
        kind = flags.get(token)
        if kind is None:
            raise UsageError(f"unrecognized argument {token!r:.40}")
        if kind is _HELP:
            return command, None
        text = "" if kind is _SWITCH else next(rest, token)
        if text in flags:  # at the end, or a flag in the value's place
            raise UsageError(f"argument {token}: expected a value")
        try:
            found[token] = kind is _SWITCH or kind.take(text)
        except ValueError as exc:
            raise UsageError(f"argument {token}: {exc}") from None
    missing = [flag for flag, kind in flags.items() if kind.default is None and flag not in found]
    if missing:
        raise UsageError(f"missing {', '.join(missing)}")
    return command, [found.get(flag, kind.default) for flag, kind in flags.items()
                     if kind is not _HELP]


def _read_command(line: str) -> tuple[Command, list]:
    """The record and flag values of a COMMAND= line.  A line they do not
    write back byte for byte (say, a repeated or reordered flag or a number
    written otherwise) is not the producer's: a format error."""
    name, *tokens = line.split(" ")
    try:
        command, values = _read(name, tokens, {})
        if command.check is None or _command_line(name, command, values) != line:
            raise UsageError(line)
    except UsageError:
        raise CertificateFormatError(f"COMMAND is not as the producer writes it: {line!r:.80}")
    return command, values


def _usage(name: str) -> str:
    """The synopsis of one subcommand; a flag with a default is in brackets."""
    words = [f"fankit {name} --spec SPEC"]
    for flag, kind in COMMANDS[name].flags.items():
        word = flag if kind is _SWITCH else f"{flag} {flag[2:].upper()}"
        words.append(word if kind.default is None else f"[{word}]")
    return " ".join(words)


def run(argv: list[str]) -> tuple[int, str]:
    """Execute one command line; returns (exit code, certificate text)."""
    return copy_context().run(_run, argv)  # the meter _run sets ends with the run


def _run(argv: list[str]) -> tuple[int, str]:
    if argv[:1] in (["-h"], ["--help"]):
        return EXIT_YES, (f"usage: fankit COMMAND ...\n\n{__doc__}\ncommands:\n"
                          + "".join(f"  {_usage(name)}\n" for name in COMMANDS))
    name, *tokens = argv or [""]
    try:
        command, values = _read(name, tokens, {"--spec": _NAME, "-h": _HELP, "--help": _HELP})
    except UsageError as exc:
        return EXIT_USAGE, f"ERROR=usage: {exc}\n"
    if values is None:
        return EXIT_YES, f"usage: {_usage(name)}\n"
    spec, *values = values
    try:
        RUN_METER.set(Meter())  # every scan of the run charges this one meter
        doc = load_specdoc(spec)
    except (SpecError, OSError) as exc:
        return EXIT_USAGE, f"ERROR=spec: {exc}\n"
    except (BudgetExceededError, RecursionError) as exc:
        return EXIT_UNKNOWN, f"ERROR={type(exc).__name__}: {exc}\n"
    try:
        if command.check is None:
            return command.step(doc, *values)
        verdict, payload, trace = command.step(doc, *values)
        cert = Certificate(_command_line(name, command, values), verdict, payload, trace)
        return EXIT_CODES[verdict], cert.render()
    except (UsageError, PreconditionError, SpecError, OutOfRangeError,
            CertificateFormatError) as exc:
        return EXIT_USAGE, f"ERROR={type(exc).__name__}: {exc}\n"
    except (BudgetExceededError, RecursionError) as exc:  # nesting too deep
        return EXIT_UNKNOWN, f"ERROR={type(exc).__name__}: {exc}\n"
    except (CertificateError, InconsistencyError, WitnessError) as exc:
        return EXIT_NO, f"ERROR={type(exc).__name__}: {exc}\n"


def main() -> None:
    code, text = run(sys.argv[1:])
    sys.stdout.write(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
