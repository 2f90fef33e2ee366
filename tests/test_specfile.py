"""Definition-file errors, one row per branch, and the README's constructor list."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from fankit.specfile import _CONSTRUCTORS, SpecError, parse_specdoc

# The argument kinds of each constructor, as the README lists them.
KINDS = {
    "len_ge": ("int",), "bit": ("int", "bit"), "count_ones_ge": ("int",),
    "prefix": ("word",), "finite": ("word", ...),
    "union": ("set", "set"), "intersect": ("set", "set"), "complement": ("set",),
    "closure": ("set",), "interior": ("set",),
    "stab": ("set", "int"), "ext_closed": ("set",), "restr_closed": ("set",),
    "convex": ("set",), "coconvex": ("set",), "tree": ("set",),
    "bar": ("set", "witness"), "const": ("int",), "first_one_plus": ("int",),
    "leaf": ("int",), "node": ("int", "fn", "fn"),
}
# An argument that fits each kind; one of another kind; and what the
# error says an argument of the kind must be.
FITS = {"int": "1", "bit": "1", "word": "01", "set": "len_ge(1)", "fn": "leaf(0)",
        "witness": "const(1)"}
MISFITS = {"int": "leaf(0)", "bit": "leaf(0)", "word": "len_ge(1)", "set": "1",
           "fn": "len_ge(1)", "witness": "len_ge(1)"}
MUST_BE = {"int": "an integer", "bit": "0 or 1", "word": "a word", "set": "a set",
           "fn": "a functional", "witness": "const(k) or first_one_plus(k)"}


def _kind_cases():
    """Each argument of each constructor given a value of another kind,
    and each literal argument a token that does not read as one."""
    for name, kinds in KINDS.items():
        if kinds[-1] is ...:
            kinds = kinds[:1] * 2
        for i, kind in enumerate(kinds):
            args = [FITS[k] for k in kinds]
            args[i] = MISFITS[kind]
            yield (f"a = {name}({', '.join(args)})\n",
                   (1, 5, f"{name}: argument {i + 1} must be {MUST_BE[kind]}"))
            if kind in ("int", "bit", "word"):
                args[i] = "e" if kind != "word" else "2"
                text = f"a = {name}({', '.join(args)})\n"
                col = text.index("(") + 2 + sum(len(arg) + 2 for arg in args[:i])
                expected = ("expected an integer, got 'e'" if kind != "word"
                            else "expected a word (bits or 'e'), got '2'")
                yield text, (1, col, expected)


def _arity_cases():
    for name, kinds in KINDS.items():
        if kinds[-1] is not ...:
            args = ", ".join(FITS[k] for k in kinds + kinds[-1:])
            yield (f"a = {name}({args})\n",
                   (1, 5, f"{name} takes {len(kinds)} argument(s), got {len(kinds) + 1}"))
            yield f"a = {name}()\n", (1, 5, f"{name} takes {len(kinds)} argument(s), got 0")


REJECTED = [
    ("a = bit(0,2)\n", (1, 5, "bit: argument 2 must be 0 or 1")),
    ("a = bit(e, 2)\n", (1, 5, "bit: argument 2 must be 0 or 1")),  # the bit first
    ("a = bar(1, len_ge(1))\n",  # the witness first
     (1, 5, "bar: argument 2 must be const(k) or first_one_plus(k)")),
    ("a = bar(len_ge(1))\n", (1, 5, "bar takes 2 argument(s), got 1")),
    ("a = finite(len_ge(1))\n", (1, 5, "finite: argument 1 must be a word")),
    ("a = finite(0, 1, e, 12)\n", (1, 21, "expected a word (bits or 'e'), got '12'")),
    ("a = len_ge(1)\nb = len_ge(a)\n", (2, 5, "len_ge: argument 1 must be an integer")),
    ("a = leaf(1)\nb = complement(a)\n", (2, 5, "complement: argument 1 must be a set")),
    ("a = wrong(1)\n", (1, 5, "unknown constructor 'wrong'")),
    ("a = e(1)\n", (1, 5, "unknown constructor 'e'")),
    ("a = wrong(b)\n", (1, 11, "undefined name 'b' (references must point at earlier lines)")),
    ("a = closure(b)\nb = len_ge(1)\n",
     (1, 13, "undefined name 'b' (references must point at earlier lines)")),
    ("a = b\n", (1, 5, "undefined name 'b' (references must point at earlier lines)")),
    ("a = len_ge(1) x\n", (1, 15, "trailing input 'x'")),
    ("a = len_ge(1))\n", (1, 14, "trailing input ')'")),
    ("a = len_ge(\n", (1, 12, "unterminated argument list")),
    ("a = union(len_ge(1),\n", (1, 21, "unterminated argument list")),
    ("a = len_ge(1\n", (1, 13, "unexpected end of line")),
    ("a =\n", (1, 4, "unexpected end of line")),
    ("a = len_ge(1 2)\n", (1, 14, "expected ',' or ')', got '2'")),
    ("a = len_ge(,)\n", (1, 12, "expected a constructor or name, got ','")),
    ("a = (\n", (1, 5, "expected a constructor or name, got '('")),
    ("a len_ge(1)\n", (1, 3, "expected EQUALS, got 'len_ge'")),
    ("1 = len_ge(1)\n", (1, 1, "expected NAME, got '1'")),
    ("a = len_ge(1)!\n", (1, 14, "unexpected character '!'")),
    ("a = const(1)\n", (1, 1, "a witness cannot be bound on its own; wrap it in bar(...)")),
    ("a = len_ge(1)\n\n# again\na = len_ge(2)\n", (4, 1, "duplicate name 'a'")),
    ("a = interior(count_ones_ge(1))\n",
     (1, 5, "interior needs a declared stabilization depth")),
    ("a = stab(len_ge(1), 0)\n", (1, 5, "stab=0 violated at e -> 0")),
    ("a = ext_closed(finite(0, 1))\n", (1, 5, "extension-closed flag violated above 0")),
]


@pytest.mark.parametrize("text, expected",
                         list(_kind_cases()) + list(_arity_cases()) + REJECTED)
def test_rejected_spec_reports_line_column_and_message(text, expected):
    with pytest.raises(SpecError) as err:
        parse_specdoc(text)
    line, col, message = expected
    assert (err.value.line, err.value.col, str(err.value)) == \
        (line, col, f"line {line}, column {col}: {message}")


def test_every_constructor_accepts_its_kinds():
    for name, kinds in KINDS.items():
        args = [FITS[k] for k in kinds if k is not ...]
        if name in ("const", "first_one_plus"):
            text = f"a = bar(len_ge(1), {name}(1))\n"
        else:
            text = f"a = {name}({', '.join(args)})\n"
        parse_specdoc(text.replace("len_ge(1)", "len_ge(0)"))  # a tree, closed both ways


def test_readme_lists_every_constructor_with_its_kinds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Definition files", 1)[1]
    block = section.split("```\n", 2)[1]
    listed = {}
    for line in block.splitlines():
        for name, args in re.findall(r"(\w+)\(([^)]*)\)", line.split("#", 1)[0]):
            assert name not in listed, name
            listed[name] = tuple(... if arg == "..." else arg for arg in args.split(", "))
    assert listed == KINDS
    assert listed == {name: record.kinds for name, record in _CONSTRUCTORS.items()}


def test_nesting_depth_is_not_capped_by_the_parser():
    # one loop with a stack of open calls: no Python frame per level
    depth = 20000
    doc = parse_specdoc("a = len_ge(1)\nc = " + "complement(" * depth + "a" + ")" * depth + "\n")
    assert set(doc.definitions) == {"a", "c"}
    unclosed = "c = " + "complement(" * depth + "len_ge(1)" + ")" * (depth - 1)
    with pytest.raises(SpecError) as err:
        parse_specdoc(unclosed + "\n")
    assert str(err.value) == f"line 1, column {len(unclosed) + 1}: unexpected end of line"
