"""The record types: constructors, value semantics and reprs; the public
names of the package; and what importing it loads."""

from __future__ import annotations

import ast
import inspect
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import fankit
from fankit import (Bar, ConstancyVerdict, DecoVerdict, DefuVerdict, DSet,
                    FanOracle, LLPOOracle, Leaf, Node, Outcome, ProgramFunctional,
                    Verdict, WKLOracle, tree)
from fankit.certificate import Certificate
from fankit.specfile import SpecDoc, _Token, _Witness

SRC = Path(fankit.__file__).resolve().parent.parent

# Each record type: its fields in constructor order, and the defaults of
# the trailing ones.
RECORDS = {
    DSet: (("member_fn", "stab", "extension_closed", "restriction_closed", "convex",
            "co_convex", "levels_fn"), (None, False, False, False, False, None)),
    Verdict: (("outcome", "bound", "witness", "escape", "depth"), (None, None, None, None)),
    Bar: (("carrier", "wit"), (None,)),
    FanOracle: (("raw_bound", "tag", "reverify"), (True,)),
    LLPOOracle: (("decide", "tag"), ()),
    WKLOracle: (("solve", "tag"), ()),
    Leaf: (("value",), ()),
    Node: (("index", "low", "high"), ()),
    ProgramFunctional: (("run", "fuel", "label"), ("program",)),
    ConstancyVerdict: (("value", "witnesses"), (None, None)),
    DecoVerdict: (("exists", "witnesses"), (None,)),
    DefuVerdict: (("exists", "witness"), (None,)),
    _Token: (("kind", "text", "line", "col"), ()),
    _Witness: (("fn",), ()),
    SpecDoc: (("definitions",), ()),
    Certificate: (("command", "verdict", "payload", "trace", "version"),
                  ([], "", fankit.__version__)),
}
MUTABLE = (SpecDoc, Certificate)


def sample(cls):
    fields, _ = RECORDS[cls]
    return tuple(f"{name}-value" for name in fields)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_constructors_take_the_fields_in_order(cls):
    fields, defaults = RECORDS[cls]
    assert tuple(inspect.signature(cls).parameters) == fields
    values = sample(cls)
    by_position, by_keyword = cls(*values), cls(**dict(zip(fields, values)))
    assert by_position == by_keyword
    assert tuple(getattr(by_position, name) for name in fields) == values
    required = len(fields) - len(defaults)
    defaulted = cls(*values[:required])
    assert tuple(getattr(defaulted, name) for name in fields[required:]) == defaults
    with pytest.raises(TypeError):
        cls(*values, "one too many")
    if required:
        with pytest.raises(TypeError):
            cls(*values[:required - 1])
    with pytest.raises(TypeError):
        cls(*values[:required], no_such_field=1)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_equal_only_records_of_their_class(cls):
    values = sample(cls)
    record = cls(*values)
    assert record == cls(*values) and not record != cls(*values)
    for i in range(len(values)):
        changed = values[:i] + ("other",) + values[i + 1:]
        assert record != cls(*changed)
    assert record != values and values != record and record != list(values)
    others = [other for other in RECORDS if other is not cls
              and len(RECORDS[other][0]) == len(values)]
    for other in others:
        assert record != other(*values)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_frozen_records_hash_and_refuse_assignment(cls):
    fields, _ = RECORDS[cls]
    record = cls(*sample(cls))
    if cls in MUTABLE:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, fields[0], "changed")
        assert getattr(record, fields[0]) == "changed"
        return
    assert hash(record) == hash(cls(*sample(cls)))
    assert {record: 1}[cls(*sample(cls))] == 1
    for name in fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(record, name, "changed")
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(*sample(cls))


def test_every_certificate_gets_a_fresh_payload():
    first, second = Certificate("c", "YES"), Certificate("c", "YES")
    first.payload.append(("BOUND", "1"))
    assert second.payload == [] and Certificate("c", "YES").payload == []
    payload = [("BOUND", "2")]
    assert Certificate("c", "YES", payload).payload is payload


def member(u):
    return True


def test_reprs():
    assert repr(Leaf(1)) == "Leaf(value=1)"
    assert repr(Node(2, Leaf(0), Node(0, Leaf(1), Leaf(2)))) == (
        "Node(index=2, low=Leaf(value=0), "
        "high=Node(index=0, low=Leaf(value=1), high=Leaf(value=2)))")
    assert repr(Verdict.unknown(4)) == ("Verdict(outcome=<Outcome.UNKNOWN: 'UNKNOWN'>, "
                                        "bound=None, witness=None, escape=None, depth=4)")
    assert repr(Verdict(Outcome.YES, 3)) == ("Verdict(outcome=<Outcome.YES: 'YES'>, "
                                             "bound=3, witness=None, escape=None, depth=None)")
    assert repr(ConstancyVerdict(1)) == "ConstancyVerdict(value=1, witnesses=None)"
    assert repr(DecoVerdict(False)) == "DecoVerdict(exists=False, witnesses=None)"
    assert repr(DefuVerdict(True, (0, 1))) == "DefuVerdict(exists=True, witness=(0, 1))"
    assert repr(Certificate("bar-check --set a --depth 3", "YES", [("BOUND", "2")], "t")) == (
        "Certificate(command='bar-check --set a --depth 3', verdict='YES', "
        f"payload=[('BOUND', '2')], trace='t', version='{fankit.__version__}')")
    assert repr(SpecDoc({"a": Leaf(3)})) == "SpecDoc(definitions={'a': Leaf(value=3)})"
    assert repr(_Token("NAME", "a", 1, 2)) == "_Token(kind='NAME', text='a', line=1, col=2)"
    # DSet keeps its own repr: the flags it holds, not its membership function
    assert repr(DSet(member)) == "DSet[plain]"
    assert repr(DSet(member, 3, True, False, True)) == "DSet[stab=3 extension_closed convex]"
    assert repr(DSet(member, co_convex=True)) == "DSet[co_convex]"


def test_replace_makes_a_changed_copy():
    d = DSet(member, stab=3)
    closed = d.replace(restriction_closed=True, convex=True)
    assert closed == DSet(member, 3, restriction_closed=True, convex=True)
    assert d == DSet(member, stab=3)  # the original is unchanged
    assert d.replace() == d and d.replace() is not d
    with pytest.raises(TypeError):
        d.replace(no_such_field=True)
    # tree() flags its carrier restriction-closed through replace
    assert tree(DSet(member), validate=False) == DSet(member, restriction_closed=True)


# The names `import fankit` gives; a rewrite of the package's __init__
# must keep every one.
PUBLIC_NAMES = {
    "Bar", "BudgetExceededError", "CertificateError", "ConstancyVerdict", "DSet",
    "DecoVerdict", "DefuVerdict", "EMPTY", "FanOracle", "FankitError", "FuelError",
    "Functional", "InconsistencyError", "LLPOOracle", "Leaf", "Node", "ONE",
    "OutOfRangeError", "Outcome", "Parity", "PathGen", "PreconditionError",
    "ProgramFunctional", "Seq", "Verdict", "WKLOracle", "WitnessError", "Word",
    "ZERO", "bar_from_pc", "bar_verdict", "bit_at", "bound_of", "cfan_bound", "closure",
    "coconvex_bound", "complement", "complete", "concat", "convexity_verdict",
    "count_ones_ge", "deco_decide", "defu_set_from_functional", "defu_via_wkl", "dset",
    "empty_set", "escape_witness", "eval_traced", "eval_word", "evaluate",
    "fan_bruteforce", "fan_from_lpl", "find_path_convex_unique", "finite_set",
    "format_word", "full_set", "functional_from_bar", "functional_from_defu",
    "has_descendant", "has_prefix", "interior", "intersect_sets", "is_all_one",
    "is_all_zero", "is_constant", "is_infinite_to", "is_summit", "iter_level",
    "least_uniform_bound", "len_ge", "level", "lex_less", "llpo_bounded",
    "llpo_bounded_oracle", "llpo_from_path_oracle", "llpo_probe_tree", "lpl_from_wkl",
    "materialize", "members_at", "minimal_witness", "parse_word", "path_modulus",
    "pointwise_modulus", "query_depth", "replay", "residual", "restrict", "restrict_set",
    "survival", "survival_verdict", "survivor_width", "tree", "uc_bound_bruteforce",
    "uc_via_fan", "uniform_bound", "union_sets",
    "wkl_from_llpo", "wkl_oracle_from_llpo", "wkl_unique_from_fan", "word",
}


def test_the_public_names_stay():
    exported = {name for name in dir(fankit) if not name.startswith("_")
                and not isinstance(getattr(fankit, name), types.ModuleType)}
    assert exported == PUBLIC_NAMES
    assert fankit.__version__


def test_the_readme_library_example_does_what_its_comments_say():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1]
    block = block.split("```\n", 1)[0]
    names: dict = {}
    exec(block, names)
    promised = {"coconvex_bound(bar)": "== 3", "uniform_bound(carrier, 8).bound": "== 3",
                "gen.take(4)": "(1, 0, 0, 0)"}
    # each line `expression  # value, remark` with code before its comment
    comments = {code.strip(): comment.strip() for code, comment in
                (line.split("#", 1) for line in block.splitlines() if "#" in line[1:])}
    for expression, value in promised.items():
        assert comments[expression].startswith(value), expression
        assert eval(expression, names) == eval(value.removeprefix("== "))


def test_importing_the_cli_loads_no_code_generator():
    probe = ("import sys\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "import fankit, fankit.cli\n"
             "print(' '.join(sorted({'dataclasses', 'inspect'} & set(sys.modules))))\n")
    done = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.split() == []


def test_no_module_imports_dataclasses_or_runs_generated_code():
    for path in sorted((SRC / "fankit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in [alias.name for alias in node.names], path
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("exec", "eval", "compile"), path


def test_no_module_imports_argparse():
    # argv and COMMAND= share one reader over cli.COMMANDS; the argparse
    # layer and its names must not come back
    for path in sorted((SRC / "fankit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert "argparse" not in [alias.name for alias in node.names], path
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "argparse", path
    cli = ast.parse((SRC / "fankit" / "cli.py").read_text(encoding="utf-8"))
    names = {getattr(node, "name", getattr(node, "id", None)) for node in ast.walk(cli)
             if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Name))}
    assert not names & {"_Parser", "_Help", "_parser"}


def test_fankit_depends_on_the_standard_library_only():
    # the runtime dependency list stays empty, and every module fankit
    # imports is of the standard library or of fankit itself
    project = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    table = project.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r"^dependencies\s*=.*$", table, re.M) == ["dependencies = []"]
    for path in sorted((SRC / "fankit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "fankit", (path, name)


def test_counts_have_one_reader():
    # _budget.read_count reads every count given as text: the argv
    # converter that came before it must not come back, and no module
    # reads digits by isdecimal, which lets other scripts' digits through
    for path in sorted((SRC / "fankit").glob("*.py")):
        names = {getattr(node, "name", getattr(node, "id", getattr(node, "attr", None)))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))}
        assert "isdecimal" not in names, path
        if path.name == "cli.py":
            assert "nonnegative_int" not in names and "read_count" in names


def test_only_the_budget_module_reads_the_budget_or_names_the_depth_cap():
    # one meter per run: no other module reads FANKIT_BUDGET or the
    # environment, or names the depth cap, and the per-scan budget
    # helpers that came before the meter are gone
    gone = {"ScanMeter", "check_enumeration", "check_enumeration_exp", "enumeration_budget"}
    private = {"FANKIT_BUDGET", "MAX_SCAN_DEPTH", "environ", "getenv", "os"}
    for path in sorted((SRC / "fankit").glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        assert not names & gone, path
        if path.name != "_budget.py":
            assert not names & private, path
    budget = fankit._budget
    assert not [name for name in gone if hasattr(budget, name)]
    assert budget.MAX_SCAN_DEPTH == 1024 and "FANKIT_BUDGET" in inspect.getsource(budget)


def test_paths_carry_no_fuel():
    # a path is bounded by the run's meter and the depth cap, not by a
    # bit count of its own; no CLI path raises FuelError, so the CLI
    # neither names nor catches it
    for fn in (fankit.PathGen, fankit.find_path_convex_unique, fankit.wkl_from_llpo,
               fankit.wkl_oracle_from_llpo, fankit.wkl_unique_from_fan, fankit.coconvex_bound):
        assert "fuel" not in inspect.signature(fn).parameters, fn
    assert not hasattr(fankit.trees, "DEFAULT_FUEL")
    cli = ast.parse((SRC / "fankit" / "cli.py").read_text(encoding="utf-8"))
    names = {getattr(node, "id", getattr(node, "name", getattr(node, "attr", None)))
             for node in ast.walk(cli)}
    assert "FuelError" not in names


def recursive_functions(module: ast.Module) -> set[str]:
    """The functions of a module that call themselves, directly or through
    other functions of the module.  A call by name or by attribute (such
    as self.name) counts as a call of every function of that name;
    super().__init__ and its kind do not."""
    calls: dict[str, set[str]] = {}
    for node in ast.walk(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            called = calls.setdefault(node.name, set())
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                if isinstance(call.func, ast.Name):
                    called.add(call.func.id)
                elif isinstance(call.func, ast.Attribute) and not (
                        isinstance(call.func.value, ast.Call)
                        and getattr(call.func.value.func, "id", None) == "super"):
                    called.add(call.func.attr)
    recursive = set()
    for name in calls:
        seen, todo = set(), [name]
        while todo:
            for callee in calls.get(todo.pop(), ()):
                if callee in calls and callee not in seen:
                    seen.add(callee)
                    todo.append(callee)
        if name in seen:
            recursive.add(name)
    return recursive


def test_the_definition_file_parser_is_one_loop():
    # a parser that recursed would cap nesting at Python's stack; the old
    # recursive descent's names must not come back
    module = ast.parse((SRC / "fankit" / "specfile.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(module)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"_TokenStream", "parse_expr", "_collect_args", "_parse_call"}
    assert recursive_functions(module) == set()
    # the scan sees recursion through other functions
    looped = ast.parse("def a():\n    b()\n\ndef b():\n    self.c()\n\n"
                       "def c():\n    a()\n\ndef d():\n    a()\n")
    assert recursive_functions(looped) == {"a", "b", "c"}
