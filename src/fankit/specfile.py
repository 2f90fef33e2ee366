"""Line-oriented definition files: one `name = expression` per line.

The expression grammar is a small fixed set of constructors, chosen over
a general language so the verifier never depends on evaluation order.
Words are written as bit strings (`0110`), the empty word as `e`.
References must point at earlier lines, which keeps definitions acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .continuity import Functional, Leaf, Node
from .errors import FankitError, PreconditionError
from .fan import Bar
from .sets import (DSet, bit_at, closure, complement, count_ones_ge,
                   finite_set, has_prefix, interior, intersect_sets, len_ge,
                   union_sets, validate_claims)
from .trees import Tree, tree
from .words import EMPTY, Seq, Word, parse_word


class SpecError(FankitError):
    """Parse or semantic error in a definition file, with its position."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


@dataclass(frozen=True)
class _Token:
    kind: str  # NAME, ATOM, LPAREN, RPAREN, COMMA
    text: str
    line: int
    col: int


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
        if c == "(":
            tokens.append(_Token("LPAREN", c, line_no, col))
            i += 1
        elif c == ")":
            tokens.append(_Token("RPAREN", c, line_no, col))
            i += 1
        elif c == ",":
            tokens.append(_Token("COMMA", c, line_no, col))
            i += 1
        elif c == "=":
            tokens.append(_Token("EQUALS", c, line_no, col))
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


class _TokenStream:
    def __init__(self, tokens: list[_Token], line_no: int, line_len: int):
        self._tokens = tokens
        self._pos = 0
        self._line = line_no
        self._end_col = line_len + 1

    def peek(self) -> _Token | None:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise SpecError("unexpected end of line", self._line, self._end_col)
        self._pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise SpecError(f"expected {kind}, got {tok.text!r}", tok.line, tok.col)
        return tok

    def done(self) -> bool:
        return self._pos >= len(self._tokens)


@dataclass(frozen=True)
class _Witness:
    fn: Callable[[Seq], int]
    tag: str


Definition = object  # DSet | Tree | Bar | Functional


@dataclass
class SpecDoc:
    definitions: dict[str, Definition]

    def _lookup(self, name: str, wanted: str):
        if name not in self.definitions:
            raise PreconditionError(f"name {name!r} is not defined in the spec file")
        value = self.definitions[name]
        if wanted == "set":
            if isinstance(value, DSet):
                return value
            if isinstance(value, Tree):
                return value.carrier
            if isinstance(value, Bar):
                return value.carrier
        elif wanted == "tree" and isinstance(value, Tree):
            return value
        elif wanted == "bar" and isinstance(value, Bar):
            return value
        elif wanted == "fn" and isinstance(value, (Leaf, Node)):
            return value
        raise PreconditionError(
            f"name {name!r} is a {type(value).__name__}, but a {wanted} is needed")

    def get_set(self, name: str) -> DSet:
        return self._lookup(name, "set")

    def get_tree(self, name: str) -> Tree:
        return self._lookup(name, "tree")

    def get_bar(self, name: str) -> Bar:
        return self._lookup(name, "bar")

    def get_functional(self, name: str) -> Functional:
        return self._lookup(name, "fn")


def _as_int(tok: _Token) -> int:
    if tok.kind == "ATOM":
        try:
            return int(tok.text)
        except ValueError:  # a digit int() does not read (a superscript), or too many
            pass
    raise SpecError(f"expected an integer, got {tok.text!r:.40}", tok.line, tok.col)


def _as_word(tok: _Token) -> Word:
    if tok.kind == "NAME" and tok.text == "e":
        return EMPTY
    if tok.kind == "ATOM" and all(c in "01" for c in tok.text):
        return parse_word(tok.text)
    raise SpecError(f"expected a word (bits or 'e'), got {tok.text!r}", tok.line, tok.col)


def _const_witness(k: int) -> _Witness:
    return _Witness(lambda alpha: k, f"const({k})")


def _first_one_plus_witness(k: int) -> _Witness:
    def wit(alpha: Seq) -> int:
        for i in range(k):
            if alpha.at(i) == 1:
                return i + 1
        return k
    return _Witness(wit, f"first_one_plus({k})")


class _Parser:
    def __init__(self, doc: SpecDoc):
        self._doc = doc
        self._tables: dict = {}  # claim validation's membership tables

    def parse_expr(self, ts: _TokenStream):
        tok = ts.next()
        if tok.kind == "NAME" and (ts.peek() is None or ts.peek().kind != "LPAREN"):
            if tok.text not in self._doc.definitions:
                raise SpecError(f"undefined name {tok.text!r} "
                                "(references must point at earlier lines)",
                                tok.line, tok.col)
            return self._doc.definitions[tok.text]
        if tok.kind != "NAME":
            raise SpecError(f"expected a constructor or name, got {tok.text!r}",
                            tok.line, tok.col)
        return self._parse_call(tok, ts)

    def _collect_args(self, ts: _TokenStream) -> list[_Token | object]:
        """Raw argument items: nested calls are evaluated, atoms kept as tokens."""
        ts.expect("LPAREN")
        items: list = []
        nxt = ts.peek()
        if nxt is not None and nxt.kind == "RPAREN":
            ts.next()
            return items
        while True:
            tok = ts.peek()
            if tok is None:
                raise SpecError("unterminated argument list", ts._line, ts._end_col)
            if tok.kind == "NAME" and self._is_call_ahead(ts):
                items.append(self.parse_expr(ts))
            elif tok.kind == "NAME" and tok.text != "e":
                tok = ts.next()
                if tok.text not in self._doc.definitions:
                    raise SpecError(f"undefined name {tok.text!r} "
                                    "(references must point at earlier lines)",
                                    tok.line, tok.col)
                items.append(self._doc.definitions[tok.text])
            elif tok.kind in ("NAME", "ATOM"):
                items.append(ts.next())
            else:
                raise SpecError(f"unexpected token {tok.text!r}", tok.line, tok.col)
            sep = ts.next()
            if sep.kind == "RPAREN":
                return items
            if sep.kind != "COMMA":
                raise SpecError(f"expected ',' or ')', got {sep.text!r}",
                                sep.line, sep.col)

    def _is_call_ahead(self, ts: _TokenStream) -> bool:
        pos = ts._pos
        if pos + 1 < len(ts._tokens):
            return ts._tokens[pos + 1].kind == "LPAREN"
        return False

    def _parse_call(self, head: _Token, ts: _TokenStream):
        name = head.text
        items = self._collect_args(ts)

        def arity(n: int):
            if len(items) != n:
                raise SpecError(f"{name} takes {n} argument(s), got {len(items)}",
                                head.line, head.col)

        def arg_int(i: int) -> int:
            item = items[i]
            if not isinstance(item, _Token):
                raise SpecError(f"{name}: argument {i + 1} must be an integer",
                                head.line, head.col)
            return _as_int(item)

        def arg_word(i: int) -> Word:
            item = items[i]
            if not isinstance(item, _Token):
                raise SpecError(f"{name}: argument {i + 1} must be a word",
                                head.line, head.col)
            return _as_word(item)

        def arg_set(i: int) -> DSet:
            item = items[i]
            if isinstance(item, _Token):
                raise SpecError(f"{name}: argument {i + 1} must be a set expression",
                                head.line, head.col)
            if isinstance(item, DSet):
                return item
            if isinstance(item, Tree):
                return item.carrier
            if isinstance(item, Bar):
                return item.carrier
            raise SpecError(f"{name}: argument {i + 1} is not a set", head.line, head.col)

        def arg_fn(i: int) -> Functional:
            item = items[i]
            if isinstance(item, (Leaf, Node)):
                return item
            raise SpecError(f"{name}: argument {i + 1} must be a functional",
                            head.line, head.col)

        def claim(base: DSet, **added) -> DSet:
            """base with the added claims.  Only the claims base does not
            already hold are validated: its own were validated on the
            line that made them, or hold by construction."""
            fields = dict(stab=base.stab, extension_closed=base.extension_closed,
                          restriction_closed=base.restriction_closed,
                          convex=base.convex, co_convex=base.co_convex)
            new = {key: value for key, value in added.items() if fields[key] != value}
            if new:
                validate_claims(DSet(base.member_fn, **new), tables=self._tables)
            fields.update(added)
            return DSet(base.member_fn, **fields)

        try:
            if name == "len_ge":
                arity(1)
                return len_ge(arg_int(0))
            if name == "bit":
                arity(2)
                b = arg_int(1)
                if b not in (0, 1):
                    raise SpecError(f"bit: the bit must be 0 or 1, got {b}",
                                    head.line, head.col)
                return bit_at(arg_int(0), b)
            if name == "count_ones_ge":
                arity(1)
                return count_ones_ge(arg_int(0))
            if name == "prefix":
                arity(1)
                return has_prefix(arg_word(0))
            if name == "finite":
                return finite_set([_as_word(item) if isinstance(item, _Token) else
                                   self._bad_word(head) for item in items])
            if name == "union":
                arity(2)
                return union_sets(arg_set(0), arg_set(1))
            if name == "intersect":
                arity(2)
                return intersect_sets(arg_set(0), arg_set(1))
            if name == "complement":
                arity(1)
                return complement(arg_set(0))
            if name == "closure":
                arity(1)
                return closure(arg_set(0))
            if name == "interior":
                arity(1)
                return interior(arg_set(0))
            if name == "stab":
                arity(2)
                return claim(arg_set(0), stab=arg_int(1))
            if name in ("ext_closed", "restr_closed", "convex", "coconvex"):
                arity(1)
                flag = {"ext_closed": "extension_closed",
                        "restr_closed": "restriction_closed",
                        "convex": "convex",
                        "coconvex": "co_convex"}[name]
                return claim(arg_set(0), **{flag: True})
            if name == "tree":
                arity(1)
                return tree(claim(arg_set(0), restriction_closed=True), validate=False)
            if name == "bar":
                arity(2)
                witness = items[1]
                if not isinstance(witness, _Witness):
                    raise SpecError("bar: second argument must be const(k) or "
                                    "first_one_plus(k)", head.line, head.col)
                return Bar(arg_set(0), witness.fn)
            if name == "const":
                arity(1)
                return _const_witness(arg_int(0))
            if name == "first_one_plus":
                arity(1)
                return _first_one_plus_witness(arg_int(0))
            if name == "leaf":
                arity(1)
                return Leaf(arg_int(0))
            if name == "node":
                arity(3)
                return Node(arg_int(0), arg_fn(1), arg_fn(2))
        except PreconditionError as exc:
            raise SpecError(str(exc), head.line, head.col) from exc
        raise SpecError(f"unknown constructor {name!r}", head.line, head.col)

    @staticmethod
    def _bad_word(head: _Token):
        raise SpecError("finite: arguments must be word literals", head.line, head.col)


def parse_specdoc(text: str) -> SpecDoc:
    doc = SpecDoc(definitions={})
    parser = _Parser(doc)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, line_no)
        if not tokens:
            continue
        ts = _TokenStream(tokens, line_no, len(raw))
        name_tok = ts.expect("NAME")
        if name_tok.text in doc.definitions:
            raise SpecError(f"duplicate name {name_tok.text!r}",
                            name_tok.line, name_tok.col)
        ts.expect("EQUALS")
        value = parser.parse_expr(ts)
        if not ts.done():
            stray = ts.next()
            raise SpecError(f"trailing input {stray.text!r}", stray.line, stray.col)
        if isinstance(value, _Witness):
            raise SpecError("a witness cannot be bound on its own; wrap it in bar(...)",
                            name_tok.line, name_tok.col)
        doc.definitions[name_tok.text] = value
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
