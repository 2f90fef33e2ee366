"""Line-oriented definition files: one `name = expression` per line.

The expression grammar is a small fixed set of constructors, chosen over
a general language so the verifier never depends on evaluation order.
Words are written as bit strings (`0110`), the empty word as `e`.
References must point at earlier lines, which keeps definitions acyclic.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable

from ._budget import read_count
from ._record import FrozenRecord, Record, _set
from .continuity import Functional, Leaf, Node
from .errors import FankitError, PreconditionError
from .fan import Bar
from .sets import (DSet, bit_at, closure, complement, count_ones_ge,
                   finite_set, has_prefix, interior, intersect_sets, len_ge,
                   union_sets, validate_claims)
from .words import EMPTY, Seq, Word, parse_word


class SpecError(FankitError):
    """Parse or semantic error in a definition file, with its position."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


class _Token(FrozenRecord):
    _fields = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        _set(self, "kind", kind)  # NAME, ATOM, EQUALS, LPAREN, RPAREN, COMMA
        _set(self, "text", text)
        _set(self, "line", line)
        _set(self, "col", col)


_PUNCTUATION = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", "=": "EQUALS"}


def _tokenize_line(text: str, line_no: int) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c in " \t":
            i += 1
            continue
        if c == "#":
            break
        col = i + 1
        if c in _PUNCTUATION:
            tokens.append(_Token(_PUNCTUATION[c], c, line_no, col))
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("ATOM", text[i:j], line_no, col))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("NAME", text[i:j], line_no, col))
            i = j
        else:
            raise SpecError(f"unexpected character {c!r}", line_no, col)
    return tokens


class _Witness(FrozenRecord):
    _fields = ("fn",)

    def __init__(self, fn: Callable[[Seq], int]):
        _set(self, "fn", fn)


Definition = object  # DSet | Bar | Functional


class SpecDoc(Record):
    _fields = ("definitions",)

    def __init__(self, definitions: dict[str, Definition]):
        self.definitions = definitions

    def _lookup(self, name: str, wanted: str):
        if name not in self.definitions:
            raise PreconditionError(f"name {name!r} is not defined in the spec file")
        value = self.definitions[name]
        found = _KINDS[wanted][1](value)
        if found is None:
            raise PreconditionError(
                f"name {name!r} is a {type(value).__name__}, but a {wanted} is needed")
        return found

    def get_set(self, name: str) -> DSet:
        return self._lookup(name, "set")

    def get_tree(self, name: str) -> DSet:
        return self._lookup(name, "tree")

    def get_bar(self, name: str) -> Bar:
        return self._lookup(name, "bar")

    def get_functional(self, name: str) -> Functional:
        return self._lookup(name, "fn")


def _as_int(item) -> int | None:
    if not isinstance(item, _Token):
        return None
    try:
        return read_count(item.text)
    except ValueError:  # not ASCII digits (a name, a superscript), or too many
        raise SpecError(f"expected an integer, got {item.text!r:.40}",
                        item.line, item.col) from None


def _as_bit(item) -> int | None:
    b = _as_int(item)
    return b if b in (0, 1) else None


def _as_word(item) -> Word | None:
    if not isinstance(item, _Token):
        return None
    if item.kind == "NAME" and item.text == "e":
        return EMPTY
    if item.kind == "ATOM" and all(c in "01" for c in item.text):
        return parse_word(item.text)
    raise SpecError(f"expected a word (bits or 'e'), got {item.text!r}", item.line, item.col)


def _as_set(value) -> DSet | None:
    """A set, or the carrier of a bar: what counts as a set."""
    if isinstance(value, Bar):
        return value.carrier
    return value if isinstance(value, DSet) else None


def _as_tree(value) -> DSet | None:
    """A set flagged restriction-closed: what counts as a tree."""
    return value if isinstance(value, DSet) and value.restriction_closed else None


def _of_type(*types):
    return lambda value: value if isinstance(value, types) else None


# One kind of argument (or of name, for the SpecDoc lookups): what a value
# of it must be, and its conversion, which returns None for a value of
# another kind.  Literals reach the conversion as tokens, so a malformed one
# is reported at its own column; any other misfit, at its constructor.
_KINDS: dict[str, tuple[str, Callable]] = {
    "int": ("an integer", _as_int),
    "bit": ("0 or 1", _as_bit),
    "word": ("a word", _as_word),
    "set": ("a set", _as_set),
    "fn": ("a functional", _of_type(Leaf, Node)),
    "witness": ("const(k) or first_one_plus(k)", _of_type(_Witness)),
    "tree": ("a tree", _as_tree),
    "bar": ("a bar", _of_type(Bar)),
}

# A bit or a witness is converted before the other arguments, so a call
# with two misfits reports it.
_CHECKED_FIRST = ("bit", "witness")


def _first_one_plus_witness(k: int) -> _Witness:
    def wit(alpha: Seq) -> int:
        for i in range(k):
            if alpha.at(i) == 1:
                return i + 1
        return k
    return _Witness(wit)


def _claim_flag(flag: str):
    return lambda claim, a: claim(a, **{flag: True})


# One constructor: the kind of each argument (a trailing ... repeats the
# kind before it any number of times), and the builder, called with the
# converted arguments, after the parser's claim when claims is set.
_Constructor = namedtuple("_Constructor", "kinds build claims", defaults=(False,))

_CONSTRUCTORS: dict[str, _Constructor] = {
    "len_ge": _Constructor(("int",), len_ge),
    "bit": _Constructor(("int", "bit"), bit_at),
    "count_ones_ge": _Constructor(("int",), count_ones_ge),
    "prefix": _Constructor(("word",), has_prefix),
    "finite": _Constructor(("word", ...), lambda *words: finite_set(words)),
    "union": _Constructor(("set", "set"), union_sets),
    "intersect": _Constructor(("set", "set"), intersect_sets),
    "complement": _Constructor(("set",), complement),
    "closure": _Constructor(("set",), closure),
    "interior": _Constructor(("set",), interior),
    "stab": _Constructor(("set", "int"), lambda claim, a, k: claim(a, stab=k), True),
    "ext_closed": _Constructor(("set",), _claim_flag("extension_closed"), True),
    "restr_closed": _Constructor(("set",), _claim_flag("restriction_closed"), True),
    "convex": _Constructor(("set",), _claim_flag("convex"), True),
    "coconvex": _Constructor(("set",), _claim_flag("co_convex"), True),
    "tree": _Constructor(("set",), _claim_flag("restriction_closed"), True),
    "bar": _Constructor(("set", "witness"), lambda a, witness: Bar(a, witness.fn)),
    "const": _Constructor(("int",), lambda k: _Witness(lambda alpha: k)),
    "first_one_plus": _Constructor(("int",), _first_one_plus_witness),
    "leaf": _Constructor(("int",), Leaf),
    "node": _Constructor(("int", "fn", "fn"), Node),
}


class _Parser:
    def __init__(self, doc: SpecDoc):
        self._doc = doc
        self._tables: dict = {}  # claim validation's membership tables

    def parse_line(self, tokens: list[_Token], line_no: int, end_col: int) -> None:
        """Bind `name = expression`, read in one loop with a stack of the open
        calls, each a head token and its arguments so far.  Literals (digits,
        and a bare e) stay tokens until their call converts them."""
        defs, pos = self._doc.definitions, 0

        def take(kind: str | None = None, at_end: str = "unexpected end of line") -> _Token:
            nonlocal pos
            if pos == len(tokens):
                raise SpecError(at_end, line_no, end_col)
            tok = tokens[pos]
            pos += 1
            if kind is not None and tok.kind != kind:
                raise SpecError(f"expected {kind}, got {tok.text!r}", tok.line, tok.col)
            return tok

        name = take("NAME")
        if name.text in defs:
            raise SpecError(f"duplicate name {name.text!r}", name.line, name.col)
        take("EQUALS")
        stack: list[tuple[_Token, list]] = []
        while True:
            tok = take(at_end="unterminated argument list" if stack else "unexpected end of line")
            opens = pos < len(tokens) and tokens[pos].kind == "LPAREN"
            if tok.kind == "RPAREN" and tokens[pos - 2].kind == "LPAREN":
                value = self._call(*stack.pop())  # an empty argument list
            elif stack and (tok.kind == "ATOM" or tok.text == "e" and not opens):
                value = tok
            elif tok.kind != "NAME":
                raise SpecError(f"expected a constructor or name, got {tok.text!r}",
                                tok.line, tok.col)
            elif opens:
                pos += 1
                stack.append((tok, []))
                continue
            elif tok.text in defs:
                value = defs[tok.text]
            else:
                raise SpecError(f"undefined name {tok.text!r} "
                                "(references must point at earlier lines)", tok.line, tok.col)
            while stack:
                stack[-1][1].append(value)
                sep = take()
                if sep.kind == "COMMA":
                    break
                if sep.kind != "RPAREN":
                    raise SpecError(f"expected ',' or ')', got {sep.text!r}",
                                    sep.line, sep.col)
                value = self._call(*stack.pop())
            else:
                break
        if pos < len(tokens):
            stray = tokens[pos]
            raise SpecError(f"trailing input {stray.text!r}", stray.line, stray.col)
        if isinstance(value, _Witness):
            raise SpecError("a witness cannot be bound on its own; wrap it in bar(...)",
                            name.line, name.col)
        defs[name.text] = value

    def _call(self, head: _Token, items: list):
        """A closed call's value: its constructor on the converted arguments."""
        name = head.text
        if name not in _CONSTRUCTORS:
            raise SpecError(f"unknown constructor {name!r}", head.line, head.col)
        kinds, build, claims = _CONSTRUCTORS[name]
        if kinds[-1] is ...:
            kinds = kinds[:1] * len(items)
        elif len(items) != len(kinds):
            raise SpecError(f"{name} takes {len(kinds)} argument(s), got {len(items)}",
                            head.line, head.col)
        args = [None] * len(items)
        for i in sorted(range(len(items)), key=lambda i: kinds[i] not in _CHECKED_FIRST):
            what, convert = _KINDS[kinds[i]]
            args[i] = convert(items[i])
            if args[i] is None:
                raise SpecError(f"{name}: argument {i + 1} must be {what}",
                                head.line, head.col)
        try:
            return build(self.claim, *args) if claims else build(*args)
        except PreconditionError as exc:
            raise SpecError(str(exc), head.line, head.col) from exc

    def claim(self, base: DSet, **added) -> DSet:
        """base with the added claims.  Only the claims base does not
        already hold are validated: its own were validated on the line
        that made them, or hold by construction."""
        new = {key: value for key, value in added.items() if getattr(base, key) != value}
        if new:
            validate_claims(DSet(base.member_fn, levels_fn=base.levels_fn, **new),
                            tables=self._tables)
        return base.replace(**added)


def parse_specdoc(text: str) -> SpecDoc:
    doc = SpecDoc(definitions={})
    parser = _Parser(doc)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, line_no)
        if tokens:
            parser.parse_line(tokens, line_no, len(raw) + 1)
    return doc


def load_specdoc(path: str) -> SpecDoc:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # a stand-in for the bad byte ends the last line at its column
        lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
        raise SpecError(f"byte 0x{data[exc.start]:02x} is not UTF-8 text ({exc.reason})",
                        len(lines), len(lines[-1])) from exc
    return parse_specdoc(text)
