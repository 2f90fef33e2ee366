"""Query-based functionals on Cantor space and the continuity layer.

Two representations: finite decision trees, on which constancy, moduli,
and uniform-continuity bounds are all decidable outright, and fueled
query programs for the least-prefix constructions that have no natural
finite tree.  Programs log their queries per evaluation, so outputs can
be replayed and reconstructed.
"""

from __future__ import annotations

from typing import Callable, Iterator, Union

from ._budget import meter
from ._record import FrozenRecord, _set
from .errors import CertificateError, FuelError, OutOfRangeError, PreconditionError
from .fan import Bar, FanOracle, minimal_witness
from .oracles import WKLOracle
from .sets import DSet, _lowest, _ones, _value, _word, interior, level_rows
from .words import EMPTY, ONE, ZERO, Seq, Word, concat, format_word, iter_level, restrict


class Leaf(FrozenRecord):
    _fields = ("value",)

    def __init__(self, value: int):
        _set(self, "value", value)


class Node(FrozenRecord):
    _fields = ("index", "low", "high")

    def __init__(self, index: int, low: Functional, high: Functional):
        _set(self, "index", index)
        _set(self, "low", low)
        _set(self, "high", high)


Functional = Union[Leaf, Node]


class ProgramFunctional(FrozenRecord):
    """A total map given as a bit-querying program with a fuel budget."""
    _fields = ("run", "fuel", "label")

    def __init__(self, run: Callable[[Callable[[int], int]], int], fuel: int,
                 label: str = "program"):
        _set(self, "run", run)
        _set(self, "fuel", fuel)
        _set(self, "label", label)


AnyFunctional = Union[Leaf, Node, ProgramFunctional]


def _nodes(f: Functional) -> Iterator[Functional]:
    """Each distinct node of f once, leaves included: a sub-functional
    shared by name is read once, however many paths lead to it."""
    seen, stack = set(), [f]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            yield node
            if isinstance(node, Node):
                stack += (node.low, node.high)


def query_depth(f: Functional) -> int:
    """1 + the largest index the tree can query; 0 for a leaf."""
    return max(node.index + 1 if isinstance(node, Node) else 0 for node in _nodes(f))


def eval_traced(f: AnyFunctional, alpha: Seq) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Value at alpha together with the (index, bit) query log."""
    log: list[tuple[int, int]] = []
    if isinstance(f, ProgramFunctional):
        def qfn(i: int) -> int:
            if len(log) >= f.fuel:
                raise FuelError(f"{f.label} exceeded its fuel of {f.fuel} queries")
            b = alpha.at(i)
            log.append((i, b))
            return b
        value = f.run(qfn)
        return value, tuple(log)
    node = f
    while isinstance(node, Node):
        b = alpha.at(node.index)
        log.append((node.index, b))
        node = node.high if b else node.low
    return node.value, tuple(log)


def evaluate(f: AnyFunctional, alpha: Seq) -> int:
    return eval_traced(f, alpha)[0]


def replay(f: AnyFunctional, log) -> int:
    """Re-run an evaluation answering queries from its own log; the result
    must reproduce the original output (programs are deterministic)."""
    table = dict(log)

    def lookup(i: int) -> int:
        if i not in table:
            raise CertificateError(f"replay log holds no bit for index {i}")
        return table[i]

    return evaluate(f, Seq.from_rule(lookup))


def eval_word(f: AnyFunctional, u: Word) -> int:
    """Value on the finite word u, padded with zeros.  A decision tree is
    walked on the word itself; a program reads it as a sequence."""
    if isinstance(f, ProgramFunctional):
        return evaluate(f, concat(tuple(u), ZERO))
    n = len(u)
    while isinstance(f, Node):
        i = f.index
        if i < 0:
            raise OutOfRangeError(f"sequence index must be nonnegative, got {i}")
        f = f.high if i < n and u[i] else f.low
    return f.value


def residual(f: Functional, u: Word) -> Functional:
    """The functional seen after the prefix u: queries under the prefix are
    resolved by it, the rest shift down by its length."""
    if isinstance(f, Leaf):
        return f
    if f.index < len(u):
        return residual(f.high if u[f.index] else f.low, u)
    return Node(f.index - len(u), residual(f.low, u), residual(f.high, u))


def _pad_assignment(assign: dict[int, int]) -> Seq:
    width = max(assign) + 1 if assign else 0
    return Seq.eventually_constant(tuple(assign.get(i, 0) for i in range(width)), 0)


class ConstancyVerdict(FrozenRecord):
    _fields = ("value", "witnesses")

    def __init__(self, value: int | None = None, witnesses: tuple[Seq, Seq] | None = None):
        _set(self, "value", value)
        _set(self, "witnesses", witnesses)

    @property
    def constant(self) -> bool:
        return self.value is not None


def is_constant(f: Functional) -> ConstancyVerdict:
    """Constant with its value, or two zero-padded witness sequences with
    distinct values; witnesses are the leftmost disagreeing leaf pair.
    One walk of the feasible root-to-leaf paths: a repeated query follows
    the bit the path already fixed, so phantom leaves are never met.  Each
    node passed is charged to the meter."""
    tick = meter().tick
    assign: dict[int, int] = {}

    def paths(node: Functional):
        tick("constancy walk")
        if isinstance(node, Leaf):
            yield dict(assign), node.value
        elif node.index in assign:
            yield from paths(node.high if assign[node.index] else node.low)
        else:
            for b, branch in ((0, node.low), (1, node.high)):
                assign[node.index] = b
                yield from paths(branch)
                del assign[node.index]

    walk = paths(f)
    first_bits, first_value = next(walk)
    for bits, value in walk:
        if value != first_value:
            return ConstancyVerdict(witnesses=(_pad_assignment(first_bits), _pad_assignment(bits)))
    return ConstancyVerdict(value=first_value)


def pointwise_modulus(f: AnyFunctional, alpha: Seq) -> int:
    """1 + the largest index actually queried at alpha (0 when none);
    any sequence agreeing on that prefix evaluates identically."""
    _, log = eval_traced(f, alpha)
    return max((i for i, _ in log), default=-1) + 1


def _last_dependence(f: Functional, floor: int) -> tuple[int, dict[int, int]] | None:
    """The largest index i >= floor whose bit f depends on, with bits for
    the other indices under which flipping bit i changes the value; None
    when f depends on no bit at or above floor.

    f is constant on every level-n cylinder exactly when it depends on no
    bit at or above n: two sequences that agree below n differ in finitely
    many of the bits f reads, and those can be flipped one at a time.
    Bit i is tested by one charged product walk of f against itself, the
    left copy reading bit i as 0 and the right copy as 1.  Both follow the
    bits fixed so far; a query neither has answered fixes its index to 0
    and then to 1.  While the copies agree this walks f once; below an
    index-i node it pairs the feasible paths of its two branches."""
    tick = meter().tick
    assign: dict[int, int] = {}  # the bits fixed so far; empty after a walk that fails

    def settle(node: Functional, bit: int) -> Functional:
        while isinstance(node, Node):
            b = bit if node.index == i else assign.get(node.index)
            if b is None:
                break
            node = node.high if b else node.low
        return node

    def differ(left: Functional, right: Functional) -> bool:
        tick(operation)
        left, right = settle(left, 0), settle(right, 1)
        fresh = left if isinstance(left, Node) else right
        if isinstance(fresh, Leaf):
            return left.value != right.value
        for b in (0, 1):
            assign[fresh.index] = b
            if differ(left, right):
                return True
        del assign[fresh.index]
        return False

    indices = {node.index for node in _nodes(f) if isinstance(node, Node)}
    for i in sorted(indices, reverse=True):
        if i < floor:
            break
        operation = f"dependence walk of bit {i}"
        if differ(f, f):
            return i, assign
    return None


def uc_bound_bruteforce(f: Functional) -> int:
    """Least level at which every residual is constant: one more than the
    last bit f depends on, and 0 for a constant f."""
    last = _last_dependence(f, 0)
    return 0 if last is None else last[0] + 1


def bound_of(f: Functional) -> int:
    """Largest leaf value; a bound for every evaluation."""
    return max(node.value for node in _nodes(f) if isinstance(node, Leaf))


def path_modulus(f: Functional) -> Functional:
    """The exact query-closure modulus: along each branch, the leaf holds
    1 + the largest index met on the way.  A node reached again with the
    same largest index gets the same modulus node, so f's sharing is kept."""
    memo: dict[tuple[int, int], Functional] = {}

    def go(node: Functional, seen: int) -> Functional:
        key = (id(node), seen)
        if key not in memo:
            if isinstance(node, Leaf):
                memo[key] = Leaf(seen)
            else:
                deeper = max(seen, node.index + 1)
                memo[key] = Node(node.index, go(node.low, deeper), go(node.high, deeper))
        return memo[key]
    return go(f, 0)


def materialize(p: ProgramFunctional, depth_cap: int = 20) -> Functional:
    """Reconstruct a finite decision tree by splitting the program on each
    bit it asks for; requires the program to be deterministic."""

    class _Need(Exception):
        def __init__(self, idx: int):
            self.idx = idx

    def build(assign: dict[int, int]) -> Functional:
        def qfn(i: int) -> int:
            if i in assign:
                return assign[i]
            raise _Need(i)
        try:
            return Leaf(p.run(qfn))
        except _Need as need:
            if len(assign) >= depth_cap:
                raise FuelError(
                    f"{p.label} still querying after {depth_cap} pinned bits")
            i = need.idx
            low = build({**assign, i: 0})
            high = build({**assign, i: 1})
            return Node(i, low, high)

    return build({})


# ---------------------------------------------------------------------------
# Bars from continuity and back.

def bar_from_pc(f: Functional) -> Bar:
    """The value-overtaken-by-length bar of a finite-tree functional.

    Carrier: words whose zero-padded value is at most their length.  The
    witness takes each sequence to max(queried prefix, value), which lands
    inside the carrier by construction.
    """
    stab = max(query_depth(f), bound_of(f))
    carrier = DSet(lambda u: eval_word(f, u) <= len(u), stab=stab)

    def wit(alpha: Seq) -> int:
        value, log = eval_traced(f, alpha)
        modulus = max((i for i, _ in log), default=-1) + 1
        return max(modulus, value)

    return Bar(carrier, wit)


def functional_from_bar(b: Bar, fuel: int = 64) -> ProgramFunctional:
    """The least-prefix-in-the-carrier functional; it is a modulus of
    itself, since deciding the value queries exactly that prefix."""
    carrier = b.carrier

    def run(query: Callable[[int], int]) -> int:
        u: Word = EMPTY
        for n in range(fuel + 1):
            if carrier.member(u):
                return n
            u = u + (query(n),)
        raise FuelError(f"no prefix entered the carrier within {fuel} bits")

    return ProgramFunctional(run, fuel=fuel + 1, label="least-bar-hit")


_ALT = Seq.periodic(EMPTY, (0, 1))


def _spot_check_modulus(f: AnyFunctional, m: Functional) -> None:
    for alpha in (ZERO, ONE, _ALT):
        depth = evaluate(m, alpha)
        head = restrict(alpha, depth)
        flipped = concat(head, ONE if alpha.at(depth) == 0 else ZERO)
        if evaluate(f, alpha) != evaluate(f, flipped):
            raise CertificateError(
                "claimed modulus fails a spot check: values differ inside a "
                f"depth-{depth} cylinder")


def uc_via_fan(f: AnyFunctional, m: Functional, fan: FanOracle) -> int:
    """Uniform-continuity bound through a fan oracle.

    The modulus's overtaken bar is bounded by the oracle; the bound is
    then verified directly: every residual at that level must be constant
    (finite trees, which then depend on no bit at or above it), or sampled
    tails must agree (programs).
    """
    _spot_check_modulus(f, m)
    n = fan.bound(bar_from_pc(m))
    if isinstance(f, ProgramFunctional):
        tails = (ZERO, ONE, _ALT)
        for u in iter_level(n):
            got = {evaluate(f, concat(u, tail)) for tail in tails}
            if len(got) != 1:
                raise CertificateError(
                    f"program values split below {format_word(u)}; "
                    "the modulus assertion was false")
    else:
        last = _last_dependence(f, n)
        if last is not None:
            u = tuple(last[1].get(k, 0) for k in range(n))
            raise CertificateError(
                f"residual below {format_word(u)} is not constant; "
                "the modulus assertion was false")
    return n


# ---------------------------------------------------------------------------
# Decidability of non-constancy and of escaping words.

class DecoVerdict(FrozenRecord):
    _fields = ("exists", "witnesses")

    def __init__(self, exists: bool, witnesses: tuple[Seq, Seq] | None = None):
        _set(self, "exists", exists)
        _set(self, "witnesses", witnesses)


def deco_decide(f: Functional) -> DecoVerdict:
    """Do two sequences get different values?  Decidable on finite trees."""
    verdict = is_constant(f)
    if verdict.constant:
        return DecoVerdict(exists=False)
    return DecoVerdict(exists=True, witnesses=verdict.witnesses)


def defu_set_from_functional(f: Functional) -> DSet:
    """Words where flipping the next bit to 1 leaves the value unchanged.

    Its interior is a bar, and a word escapes it exactly when the
    functional is non-constant.
    """
    return DSet(lambda u: eval_word(f, u) == eval_word(f, tuple(u) + (1,)),
                stab=query_depth(f))


def functional_from_defu(d: DSet, fuel: int = 64) -> ProgramFunctional:
    """The least level from which every longer prefix stays inside d;
    the declared stabilization depth bounds the tail check."""
    if d.stab is None:
        raise PreconditionError("set needs a declared stabilization depth")
    s = d.stab

    def run(query: Callable[[int], int]) -> int:
        got: list[int] = []

        def prefix(m: int) -> Word:
            while len(got) < m:
                got.append(query(len(got)))
            return tuple(got[:m])

        for n in range(fuel + 1):
            if all(d.member(prefix(m)) for m in range(n, max(s, n) + 1)):
                return n
        raise FuelError(f"no permanent entry into the set within {fuel} levels")

    return ProgramFunctional(run, fuel=max(fuel, s) + 2, label="least-permanent-entry")


class DefuVerdict(FrozenRecord):
    _fields = ("exists", "witness")

    def __init__(self, exists: bool, witness: Word | None = None):
        _set(self, "exists", exists)
        _set(self, "witness", witness)


def _membership_rows(d: DSet, s: int) -> list[int]:
    """d's levels 0..s as masks (sets.level_rows), every level charged
    before the first is built."""
    m, operation = meter(), f"defu escape scan to depth {s}"
    for n in range(s + 1):
        m.tick_exp(n, operation, n)
    return level_rows(d, s)


def _first_escape(rows: list[int]) -> Word | None:
    """The first word missing from the levels, shortest first and then in
    lexicographic order."""
    for n, row in enumerate(rows):
        if row != _ones(n):
            return _word(_lowest(row ^ _ones(n)), n)
    return None


def least_escape(d: DSet, s: int) -> Word | None:
    """First word outside d, shortest first and then in lexicographic
    order, among the words up to the stabilization depth s."""
    return _first_escape(_membership_rows(d, s))


def defu_via_wkl(d: DSet, wkl: WKLOracle) -> DefuVerdict:
    """Decide whether some word escapes d, via a path oracle.

    The guide tree keeps words whose own prefixes escape at least as
    early as any escape seen at their length; any path through it
    funnels past an escaping prefix whenever one exists at all, so a
    bounded scan along the path settles the question.  Every question
    about d reads one table of its levels up to the stabilization depth.
    """
    if d.stab is None:
        raise PreconditionError("set needs a declared stabilization depth")
    s = d.stab
    rows = _membership_rows(d, s)
    escape = _first_escape(rows)
    e = None if escape is None else len(escape)  # the length of the least escape

    def t_member(u: Word) -> bool:
        # every word shorter than e is in d, so a prefix of u escapes by
        # length e exactly when u[:e] does
        return e is None or len(u) < e or not rows[e] >> _value(u[:e]) & 1

    guide = DSet(t_member, stab=(0 if e is None else e), restriction_closed=True)
    alpha = wkl.solve(guide).as_seq()

    def interior_at(n: int, v: int) -> bool:
        """Is the word at bit v of level n in d's interior: are all its
        extensions down to level s in d?"""
        return all(rows[m] >> (v << (m - n)) & _ones(m - n) == _ones(m - n)
                   for m in range(n, s + 1))

    def along_path():
        """Levels and bits of alpha's prefixes of length 0..s; a bit is
        pulled from the path only when the next prefix is asked for."""
        v = 0
        for n in range(s + 1):
            yield n, v
            if n < s:
                v = 2 * v + alpha.at(n)

    if not any(interior_at(n, v) for n, v in along_path()):
        raise CertificateError(
            "the interior is not a bar along the produced path; "
            "the bar assertion on the interior was false")
    for n, v in along_path():
        if not rows[n] >> v & 1:
            return DefuVerdict(exists=True, witness=restrict(alpha, n))
    return DefuVerdict(exists=False)


def cfan_bound(d: DSet, fan: FanOracle) -> int:
    """Uniform bound for the interior of d: the interior of a stabilized
    set is itself detachable and stabilized, so it wraps as an ordinary
    bar and the fan oracle bounds it."""
    if d.stab is None:
        raise PreconditionError("set needs a declared stabilization depth")
    inner = interior(d)
    wit = minimal_witness(inner, d.stab + 1)
    return fan.bound(Bar(inner, wit))
