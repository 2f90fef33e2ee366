"""Replayable certificates: a checked region the verifier re-derives by
scans alone, and an advisory region (oracle trace, tool version)
that is never trusted.

Layout, one KEY=VALUE per line:

    FANKIT-CERT
    COMMAND=<subcommand with canonical flags>
    VERDICT=<YES|NO|UNKNOWN|EXISTS|NOT_EXISTS>
    BOUND=<n>            (bounds; for UNKNOWN, the depth exhausted)
    WITNESS=<payload>    (may repeat: level listings, witness words)
    ESCAPE=<bits>        (an escaping prefix; it continues with zeros)
    PATH=<bits>
    --
    TRACE=<event;event;...>
    VERSION=<tool version>
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import __version__
from .continuity import eval_word, is_constant, residual
from .errors import BudgetExceededError, FankitError
from .sets import DSet, Outcome, avoid_height, bar_verdict, uniform_bound
from .specfile import SpecDoc
from .trees import complete, tree_levels
from .words import Word, format_word, iter_level, parse_word

HEADER = "FANKIT-CERT"
SEPARATOR = "--"

_CHECKED_KEYS = ("COMMAND", "VERDICT", "BOUND", "WITNESS", "ESCAPE", "PATH")


class CertificateFormatError(FankitError):
    """The certificate text itself is malformed."""


@dataclass
class Certificate:
    command: str
    verdict: str
    payload: list[tuple[str, str]] = field(default_factory=list)
    trace: str = ""
    version: str = __version__

    def render(self) -> str:
        lines = [HEADER, f"COMMAND={self.command}", f"VERDICT={self.verdict}"]
        lines.extend(f"{key}={value}" for key, value in self.payload)
        lines.append(SEPARATOR)
        lines.append(f"TRACE={self.trace}")
        lines.append(f"VERSION={self.version}")
        return "\n".join(lines) + "\n"

    def values(self, key: str) -> list[str]:
        return [v for k, v in self.payload if k == key]

    def single(self, key: str) -> str:
        got = self.values(key)
        if len(got) != 1:
            raise CertificateFormatError(f"expected exactly one {key}, got {len(got)}")
        return got[0]

    @staticmethod
    def parse(text: str) -> "Certificate":
        lines = text.splitlines()
        if not lines or lines[0] != HEADER:
            raise CertificateFormatError(f"missing {HEADER} header")
        command = None
        verdict = None
        payload: list[tuple[str, str]] = []
        trace = ""
        version = ""
        in_advisory = False
        for line in lines[1:]:
            if line == SEPARATOR:
                in_advisory = True
                continue
            if "=" not in line:
                raise CertificateFormatError(f"malformed line: {line!r}")
            key, value = line.split("=", 1)
            if in_advisory:
                if key == "TRACE":
                    trace = value
                elif key == "VERSION":
                    version = value
                continue
            if key == "COMMAND":
                command = value
            elif key == "VERDICT":
                verdict = value
            elif key in _CHECKED_KEYS:
                payload.append((key, value))
            else:
                raise CertificateFormatError(f"unknown checked key {key!r}")
        if command is None or verdict is None:
            raise CertificateFormatError("certificate lacks COMMAND or VERDICT")
        return Certificate(command, verdict, payload, trace, version)


def _parse_command(command: str) -> tuple[str, dict[str, str]]:
    parts = command.split()
    if not parts:
        raise CertificateFormatError("empty COMMAND")
    sub = parts[0]
    flags: dict[str, str] = {}
    i = 1
    while i < len(parts):
        if not parts[i].startswith("--") or i + 1 >= len(parts):
            raise CertificateFormatError(f"malformed COMMAND flag near {parts[i]!r}")
        flags[parts[i][2:]] = parts[i + 1]
        i += 2
    return sub, flags


def _flag(flags: dict[str, str], name: str) -> str:
    if name not in flags:
        raise CertificateFormatError(f"COMMAND lacks --{name}")
    return flags[name]


def _count(text: str, what: str) -> int:
    """A nonnegative integer written as the producer writes one: ASCII
    digits, no sign and no leading zero."""
    try:
        value = int(text) if text.isascii() and text.isdigit() else None
    except ValueError:  # more digits than int() converts
        value = None
    if value is None or str(value) != text:
        raise CertificateFormatError(f"{what} must be a nonnegative integer, got {text!r:.40}")
    return value


def _word(text: str, what: str) -> Word:
    try:
        return parse_word(text)
    except ValueError as exc:
        raise CertificateFormatError(f"{what}: {exc}") from exc


def _check_uniform(carrier: DSet, n: int, least: bool = False) -> tuple[bool, list[str]]:
    """Is n a uniform bound of the carrier (and, with least, the least)?
    Both answers come from one descent of the avoid tree, whose height
    is n - 1 exactly when n is the least bound."""
    top, escape = avoid_height(carrier, n)
    if escape is not None:
        return False, [f"word {format_word(escape)} at level {n} has no prefix "
                       "in the carrier"]
    if least and top != n - 1:
        return False, [f"bound {n} is not the least: every level-{top + 1} word "
                       "already has a prefix in the carrier"]
    return True, []


def _check_escape(carrier: DSet, w: Word) -> tuple[bool, list[str]]:
    if carrier.stab is None or carrier.stab > len(w):
        return False, ["escape is not certifiable: the set does not stabilize "
                       f"within {len(w)} levels"]
    for k in range(len(w) + 1):
        if carrier.member(w[:k]):
            return False, [f"escape prefix {format_word(w[:k])} is inside the carrier"]
    return True, []


def verify(cert: Certificate, doc: SpecDoc) -> tuple[bool, str]:
    """Re-check a certificate against a spec document without oracles.

    Returns (ok, report); the report explains every mismatch found.  A
    malformed certificate raises CertificateFormatError instead, and a
    re-check that would exceed the scan budget raises BudgetExceededError:
    neither says the certificate is wrong.
    """
    try:
        ok, issues = _verify_inner(cert, doc)
    except (CertificateFormatError, BudgetExceededError):
        raise
    except FankitError as exc:
        return False, f"verification error: {exc}"
    if ok:
        return True, "certificate verified"
    return False, "\n".join(issues) if issues else "certificate rejected"


def _verify_inner(cert: Certificate, doc: SpecDoc) -> tuple[bool, list[str]]:
    sub, flags = _parse_command(cert.command)

    if sub in ("bar-check", "uniform-bound"):
        carrier = doc.get_set(_flag(flags, "set"))
        limit_flag = "depth" if sub == "bar-check" else "max"
        limit = _count(_flag(flags, limit_flag), f"--{limit_flag}")
        if cert.verdict == "YES":
            n = _count(cert.single("BOUND"), "BOUND")
            if n > limit:
                return False, [f"bound {n} exceeds --{limit_flag} {limit}"]
            return _check_uniform(carrier, n, least=True)
        if cert.verdict == "NO" and sub == "bar-check":
            w = _word(cert.single("ESCAPE"), "ESCAPE")
            if len(w) != limit:
                return False, [f"escape has length {len(w)}, not --depth {limit}"]
            return _check_escape(carrier, w)
        if cert.verdict == "UNKNOWN":
            depth = _count(cert.single("BOUND"), "BOUND")
            if depth != limit:
                return False, [f"UNKNOWN names depth {depth}, not --{limit_flag} {limit}"]
            if sub == "bar-check":
                fresh = bar_verdict(carrier, depth)
            else:
                fresh = uniform_bound(carrier, depth)
            if fresh.outcome is Outcome.UNKNOWN:
                return True, []
            return False, [f"re-scan to depth {depth} decided the question "
                           f"({fresh.outcome.value}); UNKNOWN was wrong"]
        return False, [f"verdict {cert.verdict} does not fit {sub}"]

    if sub == "complete-tree":
        t = doc.get_tree(_flag(flags, "tree"))
        depth = _count(_flag(flags, "depth"), "--depth")
        seen: dict[int, str] = {}
        for value in cert.values("WITNESS"):
            if ":" not in value:
                return False, [f"malformed level listing {value!r}"]
            idx, words = value.split(":", 1)
            k = _count(idx, "WITNESS level")
            if k > depth:
                return False, [f"level {k} lies outside 0..{depth}"]
            if k in seen:
                return False, [f"level {k} is listed twice"]
            seen[k] = words
        issues = []
        for k, members in enumerate(tree_levels(complete(t), depth)):
            expected = " ".join(format_word(u) for u in members)
            if seen.get(k) != expected:
                issues.append(f"level {k}: certificate says {seen.get(k)!r}, "
                              f"recomputation says {expected!r}")
        return (not issues), issues

    if sub == "find-path":
        t = doc.get_tree(_flag(flags, "tree"))
        bits = _count(_flag(flags, "bits"), "--bits")
        path = _word(cert.single("PATH"), "PATH")
        if len(path) != bits:
            return False, [f"path has {len(path)} bits, not --bits {bits}"]
        for k in range(1, len(path) + 1):
            if not t.member(path[:k]):
                return False, [f"path prefix {format_word(path[:k])} is not in the tree"]
        return True, []

    if sub == "coconvex-bound":
        b = doc.get_bar(_flag(flags, "bar"))
        n = _count(cert.single("BOUND"), "BOUND")
        return _check_uniform(b.carrier, n)

    if sub == "uc-bound":
        f = doc.get_functional(_flag(flags, "fn"))
        n = _count(cert.single("BOUND"), "BOUND")
        for u in iter_level(n):
            if not is_constant(residual(f, u)).constant:
                return False, [f"residual below {format_word(u)} is not constant "
                               f"at level {n}"]
        return True, []

    if sub == "deco":
        f = doc.get_functional(_flag(flags, "fn"))
        if cert.verdict == "EXISTS":
            raw = cert.single("WITNESS")
            if ":" not in raw:
                return False, [f"malformed witness pair {raw!r}"]
            left, right = raw.split(":", 1)
            a, b = _word(left, "WITNESS"), _word(right, "WITNESS")
            if eval_word(f, a) == eval_word(f, b):
                return False, ["witness prefixes evaluate to the same value"]
            return True, []
        if cert.verdict == "NOT_EXISTS":
            verdict = is_constant(f)
            if verdict.constant:
                return True, []
            return False, ["the functional is not constant; EXISTS was the truth"]
        return False, [f"verdict {cert.verdict} does not fit deco"]

    if sub == "defu":
        d = doc.get_set(_flag(flags, "set"))
        if cert.verdict == "EXISTS":
            w = _word(cert.single("WITNESS"), "WITNESS")
            if d.member(w):
                return False, [f"claimed escape {format_word(w)} is inside the set"]
            return True, []
        if cert.verdict == "NOT_EXISTS":
            if d.stab is None:
                return False, ["cannot re-check NOT_EXISTS without a stabilization depth"]
            for n in range(d.stab + 1):
                for u in iter_level(n):
                    if not d.member(u):
                        return False, [f"word {format_word(u)} escapes the set; "
                                       "EXISTS was the truth"]
            return True, []
        return False, [f"verdict {cert.verdict} does not fit defu"]

    return False, [f"unknown command {sub!r}"]
