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

from itertools import zip_longest
from typing import Callable

from . import __version__
from ._budget import check_depth, meter, read_count
from ._record import Record
from .continuity import Functional, Leaf, Node, eval_word, least_escape
from .errors import BudgetExceededError, FankitError
from .sets import DSet, avoid_descent
from .specfile import SpecDoc
from .trees import complete, tree_levels
from .words import Word, format_word, parse_word

HEADER = "FANKIT-CERT"
SEPARATOR = "--"


class CertificateFormatError(FankitError):
    """The certificate text itself is malformed."""


class Certificate(Record):
    _fields = ("command", "verdict", "payload", "trace", "version")

    def __init__(self, command: str, verdict: str,
                 payload: list[tuple[str, str]] | None = None, trace: str = "",
                 version: str = __version__):
        self.command = command
        self.verdict = verdict
        self.payload = [] if payload is None else payload
        self.trace = trace
        self.version = version

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
        """Read the layout `render` writes: header, COMMAND, VERDICT, payload,
        separator, then advisory lines, of which TRACE and VERSION are kept."""
        lines = text.splitlines()
        if lines[:1] != [HEADER] or SEPARATOR not in lines:
            raise CertificateFormatError(f"missing {HEADER} header or {SEPARATOR} separator")
        end = lines.index(SEPARATOR)
        pairs = []
        for line in lines[1:end] + lines[end + 1:]:
            if "=" not in line:
                raise CertificateFormatError(f"malformed line: {line!r}")
            pairs.append(tuple(line.split("=", 1)))
        checked, advisory = pairs[:end - 1], dict(pairs[end - 1:])
        if [key for key, _ in checked[:2]] != ["COMMAND", "VERDICT"]:
            raise CertificateFormatError("certificate does not open with COMMAND and VERDICT")
        return Certificate(checked[0][1], checked[1][1], checked[2:],
                           advisory.get("TRACE", ""), advisory.get("VERSION", ""))


def _count(text: str, what: str) -> int:
    """A count written as the producer writes one: with no leading zero."""
    try:
        value = read_count(text, what)
    except ValueError:
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
    top, escape = avoid_descent(carrier, n)
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


def verify(cert: Certificate, doc: SpecDoc, check: Callable, values: list,
           verdicts: dict[str, tuple[str, ...]]) -> tuple[bool, str]:
    """Re-check a certificate against a spec document without oracles, by
    its subcommand's `check(cert, doc, *values)` on the flag values read
    from COMMAND=; `verdicts` maps each verdict to its payload keys.

    Returns (ok, report); the report explains every mismatch found.  A
    malformed certificate raises CertificateFormatError instead, and a
    re-check that would exceed the scan budget raises BudgetExceededError:
    neither says the certificate is wrong.
    """
    sub = cert.command.split(" ", 1)[0]
    keys = verdicts.get(cert.verdict)
    if keys is None:
        return False, f"verdict {cert.verdict} does not fit {sub}"
    for key, _ in cert.payload:
        if key not in keys:
            return False, f"verdict {cert.verdict} with {key} does not fit {sub}"
    try:
        ok, issues = check(cert, doc, *values)
    except (CertificateFormatError, BudgetExceededError):
        raise
    except FankitError as exc:
        return False, f"verification error: {exc}"
    if ok:
        return True, "certificate verified"
    return False, "\n".join(issues) if issues else "certificate rejected"


def _check_scan(cert: Certificate, carrier: DSet, limit: int, limit_flag: str,
                stab_decides: bool) -> tuple[bool, list[str]]:
    """UNKNOWN is right when a level-limit word escapes and, with stab_decides
    (bar-check, where an escape decides NO once the carrier stabilizes), the
    carrier does not stabilize by the limit."""
    if cert.verdict == "YES":
        n = _count(cert.single("BOUND"), "BOUND")
        if n > limit:
            return False, [f"bound {n} exceeds {limit_flag} {limit}"]
        return _check_uniform(carrier, n, least=True)
    if cert.verdict == "NO":
        w = _word(cert.single("ESCAPE"), "ESCAPE")
        if len(w) != limit:
            return False, [f"escape has length {len(w)}, not {limit_flag} {limit}"]
        return _check_escape(carrier, w)
    depth = _count(cert.single("BOUND"), "BOUND")
    if depth != limit:
        return False, [f"UNKNOWN names depth {depth}, not {limit_flag} {limit}"]
    if stab_decides and carrier.stab is not None and carrier.stab <= depth \
            or avoid_descent(carrier, depth)[1] is None:
        return False, [f"a scan to depth {depth} decides the question; UNKNOWN was wrong"]
    return True, []


def check_bar_check(cert: Certificate, doc: SpecDoc, name: str, depth: int):
    return _check_scan(cert, doc.get_set(name), depth, "--depth", True)


def check_uniform_bound(cert: Certificate, doc: SpecDoc, name: str, limit: int):
    return _check_scan(cert, doc.get_set(name), limit, "--max", False)


def check_complete_tree(cert: Certificate, doc: SpecDoc, name: str, depth: int):
    """The listing must be one descent's listing of the completion, line
    for line and in order."""
    listing = cert.values("WITNESS")
    for value in listing:
        _count(value.split(":", 1)[0], "WITNESS level")
    levels = tree_levels(complete(doc.get_tree(name)), depth)
    expected = [f"{k}:{' '.join(map(format_word, level))}" for k, level in enumerate(levels)]
    issues = [f"WITNESS line {k}: certificate says {got!r}, recomputation says {want!r}"
              for k, (got, want) in enumerate(zip_longest(listing, expected))
              if got != want]
    return (not issues), issues


def check_find_path(cert: Certificate, doc: SpecDoc, name: str, bits: int, horizon: int):
    check_depth(bits, "find-path")
    t = doc.get_tree(name)
    path = _word(cert.single("PATH"), "PATH")
    if len(path) != bits:
        return False, [f"path has {len(path)} bits, not --bits {bits}"]
    for k in range(1, len(path) + 1):
        if not t.member(path[:k]):
            return False, [f"path prefix {format_word(path[:k])} is not in the tree"]
    return True, []


def check_coconvex_bound(cert: Certificate, doc: SpecDoc, name: str):
    b = doc.get_bar(name)
    n = _count(cert.single("BOUND"), "BOUND")
    return _check_uniform(b.carrier, n)


class _Split(Exception):
    """Two leaves with different values below one word (their bits below n)."""


def _level_split(f: Functional, n: int) -> Word | None:
    """A level-n word below which f takes two values; None when f is
    constant below every level-n word.

    Two feasible leaves lie below one level-n word exactly when their
    paths agree on every index below n that both fix.  The leaves below
    the two branches of a node with index i disagree at i, so only nodes
    with index at least n need their branches compared.  A walk of the
    feasible paths hands each such node the leaves of both branches,
    cut down to (bits below n, value) and merged when equal, and compares
    them pair by pair.  Each node and each pair is charged to the meter.
    """
    tick = meter().tick
    assign: dict[int, int] = {}

    def walk(node: Functional, keep: bool) -> set | None:
        while isinstance(node, Node) and node.index in assign:
            node = node.high if assign[node.index] else node.low
        tick("split walk", n)
        if isinstance(node, Leaf):
            if not keep:
                return None
            return {(frozenset((k, b) for k, b in assign.items() if k < n), node.value)}
        i = node.index
        keep_below = keep or i >= n
        assign[i] = 0
        low = walk(node.low, keep_below)
        assign[i] = 1
        high = walk(node.high, keep_below)
        del assign[i]
        if i >= n:
            for low_bits, low_value in low:
                for high_bits, high_value in high:
                    tick("split walk", n)
                    if low_value != high_value and \
                            not any((k, 1 - b) in low_bits for k, b in high_bits):
                        raise _Split(low_bits | high_bits)
        if not keep:
            return None
        if len(low) < len(high):
            low, high = high, low
        low |= high
        return low

    try:
        walk(f, False)
    except _Split as split:
        bits = dict(split.args[0])
        return tuple(bits.get(k, 0) for k in range(n))
    return None


def check_uc_bound(cert: Certificate, doc: SpecDoc, name: str, via_fan: bool):
    """Every residual at BOUND is constant; without --via-fan BOUND must
    also be the least such level, as its producer finds it."""
    f = doc.get_functional(name)
    n = _count(cert.single("BOUND"), "BOUND")
    u = _level_split(f, n)
    if u is not None:
        return False, [f"residual below {format_word(u)} is not constant at level {n}"]
    if not via_fan and n > 0 and _level_split(f, n - 1) is None:
        return False, [f"bound {n} is not the least: every residual at level {n - 1} "
                       "is already constant"]
    return True, []


def check_deco(cert: Certificate, doc: SpecDoc, name: str):
    f = doc.get_functional(name)
    if cert.verdict == "EXISTS":
        raw = cert.single("WITNESS")
        if ":" not in raw:
            return False, [f"malformed witness pair {raw!r}"]
        left, right = raw.split(":", 1)
        a, b = _word(left, "WITNESS"), _word(right, "WITNESS")
        if eval_word(f, a) == eval_word(f, b):
            return False, ["witness prefixes evaluate to the same value"]
        return True, []
    if _level_split(f, 0) is None:  # constant below the empty word
        return True, []
    return False, ["the functional is not constant; EXISTS was the truth"]


def check_defu(cert: Certificate, doc: SpecDoc, name: str, horizon: int):
    d = doc.get_set(name)
    if cert.verdict == "EXISTS":
        w = _word(cert.single("WITNESS"), "WITNESS")
        if d.member(w):
            return False, [f"claimed escape {format_word(w)} is inside the set"]
        return True, []
    if d.stab is None:
        return False, ["cannot re-check NOT_EXISTS without a stabilization depth"]
    u = least_escape(d, d.stab)
    if u is not None:
        return False, [f"word {format_word(u)} escapes the set; EXISTS was the truth"]
    return True, []
