"""Formula evaluation over finite surrogates and the genuinely infinite
universe.

Two evaluation domains are supported:

* SurrogateFinite(n): quantifiers range over {0, ..., n-1} exhaustively.
  This is honest brute force over a finite stand-in universe.

* Omega: quantifiers conceptually range over all naturals. Truth is
  decided by probing a finite candidate set per quantifier: every anchor
  (state support, constant, literal, value of an enclosing variable) plus
  a representative element far enough beyond them. An element farther
  than 2^r from every anchor is indistinguishable, by an r-round
  back-and-forth argument over a linear order with finitely supported
  decorations, from any other such element on the same side, so one far
  representative per quantifier decides the whole tail. The probe bound
  therefore grows inward with the remaining quantifier rank and outward
  with the values already chosen, which is what makes statements like
  "every element has a strict successor" come out true here while they
  are false in every finite surrogate. The argument holds for the
  structure cut down to the symbols a formula reads, so the support
  anchors may come from those symbols' values alone; a machine's step
  anchors each witness so (see validator), the public entries on the
  whole state.

Evaluation is table-driven, over bitsets. While variables are bound, a
value that reads one of them is open. An open Boolean value is a Python
int with one bit per cell of the axes it reads: a cell's position is a
mixed-radix number whose digits are the candidate indices of the read
variables, the variable bound outermost the lowest digit and the
innermost the highest block. So &, | and ^ decide a connective for every
cell at once, as in bit-parallel text search (Baeza-Yates & Gonnet, "A new
approach to text searching", CACM 1992). The value carries its read
depths, the binding depths that the atoms it evaluated read, as a bitmask.
This set is dynamic, not the static free variables: when a closed operand
settles a connective, the skipped arm's variables do not count. Two
operands that read different depths are widened to the union first: each
missing axis is inserted by moving the blocks above it apart with masked
shifts and repeating each block below it. A bitset over only the read
axes, rather than over every bound one, is what keeps a rank-3 body under
a free variable at the cube of its candidate count instead of its fourth
power times the free variable's.

A quantifier whose own depth is read folds that axis, its highest block,
away with halving shifts, OR for exists and AND for forall, after masking
each cell's candidates to the probe bound at w; one whose body does not
read its depth returns the body's value as it is. Its result is a closed
bool when no read depth is left, or when the depths left have one cell
between them. Closed terms and closed subformulas are plain Python ints
and bools, with no bitset around them; a closed operand that meets an open
one becomes the all-ones or the zero pattern of its cells.

Atoms over bound variables are patterns. x = c, x < c and c < x are a run
of one axis, R(x) masks the view's one int for R, and an n-ary atom sets
one cell per stored tuple. x = y, x < y, the bound masks and the shift
masks that widen a value depend only on the probe set-up and the axes, so
each is built once and kept with the set-up, its rows joined pairwise. A
table over two or more axes with more than _MAX_CELLS cells, whether an
atom, a pattern, a widened value or the truth table of a closed value,
raises Unsupported before it is built; a table over one axis has no cap.

On a one-element surrogate every axis has length 1, so a quantifier's
value is a plain bool even when its body reads an enclosing variable. A
connective may then settle on it and skip its other arm: over {0},
forall y. ((exists z. y = z) | R(w)) is true, where a larger universe
evaluates R(w) and raises Unsupported for the infinite literal. No value
differs; only an error that the skipped arm would raise goes unseen.

Every entry evaluates through an EvalContext: one view per state and one
evaluator per probe set-up, each worked out once. Its caller hands it
each formula's largest anchor: a public entry takes the top of its
states' support and the formula's literals, a machine's step each part's
footprint values and literals. A set-up's candidates and quantifier
values are immutable sequences; an interned table builds them and their
patterns once for all its contexts, and a raw formula's context builds
its own. One reader per value kind decodes a table's set bits, lowest
first: defined_set and defined_relation check their arguments and call
it, and a machine's step calls it on each part's table, or takes a
constant's one set bit. Each node kind's semantics is written once, as a
method of the one evaluator class, and two dispatchers reach it:

* A raw formula is interpreted node by node; this is what sat, sat2,
  defined_set and defined_relation do. Its static facts are folded on
  the first call and stored on each of its nodes (logic.static_facts),
  so the benchmark's ten evaluations of one differential sentence walk
  it once, and at w each quantifier reads its body's stored rank. It is
  not compiled, because a raw formula is evaluated a few times at most
  and compiling it would cost more than it saves: interning every
  sentence of the differential workload walks 112 200 nodes, where the
  interpreter, which skips the arms that a settled connective does not
  need, reaches 51 220, and the workload took almost three times as
  long.
* A machine's transition is compiled once, at admission: its witness
  bodies are interned into one table (Interned), so structurally equal
  subformulas are one object, whose static facts are folded from its
  children's stored ones and whose closure is built from theirs. A step
  runs every witness's closures under one context for the state, which
  computes each closed node once, however many witnesses share it.
  Running the interned bodies through the interpreter with the same memo
  made the benchmark's bridge and constructions workloads 10-20% slower.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from bisect import bisect_left
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    NotClosed,
    ThresholdViolation,
    Unrepresentable,
    Unsupported,
)
from .logic import (
    And,
    Apply,
    Const,
    Equal,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    MEMBERSHIP,
    Node,
    Not,
    Or,
    OrdinalLiteral,
    Term,
    Truth,
    Var,
    _with_children,
    children,
    quantifier_rank,
    static_facts,
)
from .ordinals import OrdinalNotation, OrdinalSet
from .states import State

__all__ = [
    "EvalDomain",
    "sat",
    "sat2",
    "defined_set",
    "defined_relation",
    "threshold_bound",
    "Interned",
    "EvalContext",
]


@dataclass(frozen=True)
class EvalDomain:
    """Where quantifiers range: a finite surrogate or the real universe."""

    kind: str
    size: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("SurrogateFinite", "Omega"):
            raise ValueError(f"bad evaluation domain {self.kind!r}")
        if self.kind == "SurrogateFinite" and (self.size is None or self.size < 1):
            raise ValueError("SurrogateFinite needs a positive size")

    @staticmethod
    def surrogate(n: int) -> "EvalDomain":
        return EvalDomain("SurrogateFinite", n)

    @staticmethod
    def omega() -> "EvalDomain":
        return EvalDomain("Omega")

    @property
    def is_omega(self) -> bool:
        return self.kind == "Omega"


def _margin(rank: int) -> int:
    """How far beyond its anchors a quantifier whose body has the given
    rank may probe: 2^rank, plus room for one far representative."""
    return 2**rank + 2


def _slack(rank: int) -> int:
    """Room above the largest candidate for every probe that a formula of
    the given rank makes, one margin per level of quantifier nesting."""
    return sum(_margin(i) for i in range(rank + 1))


def _support_max(states: Iterable[State]) -> int:
    """The top of the states' support (0 when they have none)."""
    return max([0] + [s.support_bound() - 1 for s in states])


def _anchor_max(literals: Iterable[OrdinalNotation], support_max: int) -> int:
    """The largest anchor: the top of the support and each finite literal."""
    m = support_max
    for o in literals:
        if o.is_finite:
            m = max(m, o.to_int())
    return m


def _bound(anchor_max: int, rank: int) -> int:
    """B for the given anchor maximum and quantifier rank; see threshold_bound."""
    return anchor_max + 2 ** (rank + 1) + 1


def _setup_values(
    domain: EvalDomain, anchor_max: int, rank: int, reps: int
) -> tuple[range, tuple[int, ...] | range | None]:
    """The quantifier values and the candidates of one probe set-up.

    A surrogate's quantifier values and candidates are its whole universe.
    At w the candidates are [0, B] followed by reps far representatives,
    each 2^rank + 2 beyond the one before, and the quantifiers range up to
    the last of them plus the slack of the rank. A sentence asks for no
    representatives and gets no candidates. Both are immutable, so a
    set-up can be shared.
    """
    if not domain.is_omega:
        universe = range(domain.size)
        return universe, universe if reps else None
    if not reps:
        return range(anchor_max + _slack(rank) + 1), None
    bound, margin = _bound(anchor_max, rank), _margin(rank)
    top = bound + margin * reps
    candidates = (*range(bound + 1), *range(bound + margin, top + 1, margin))
    return range(top + _slack(rank) + 1), candidates


class _Setup(NamedTuple):
    """One probe set-up: the values its quantifiers range over, the
    candidates of its truth tables' variables, and what its evaluators
    build once for the set-up (axes and patterns; see _Evaluator), keyed
    by kind and axis lengths."""

    quant_values: range
    candidates: tuple[int, ...] | range | None
    patterns: dict[tuple, Any]


def _depth_checked(method: Callable) -> Callable:
    """Report a formula too deep for the recursive walks as Unsupported,
    not as a bare RecursionError."""

    @functools.wraps(method)
    def checked(*args: Any, **kwargs: Any) -> Any:
        try:
            return method(*args, **kwargs)
        except RecursionError:
            raise Unsupported("formula is nested too deeply to evaluate") from None

    return checked


@_depth_checked
def threshold_bound(formula: Formula, state: State, *states: State) -> int:
    """The finite-evaluation bound B(formula, state).

    Everything the formula and state can distinguish lives below
    max(anchors) and elements separated from the anchors by more than
    2^(rank+1) are mutually indistinguishable, so B = max(anchors)
    + 2^(rank+1) + 1 bounds every probe the Omega evaluator will make at
    the outermost level.
    """
    _, rank, literals = static_facts(formula)
    return _bound(_anchor_max(literals, _support_max((state, *states))), rank)


def _tile(block: int, width: int, count: int) -> int:
    """count copies of a width-bit block side by side, the first at bit 0,
    in O(log count) shifts."""
    out = pos = 0
    while True:
        if count & 1:
            out |= block << pos
            pos += width
        count >>= 1
        if not count:
            return out
        block |= block << width
        width <<= 1


def _rows(rows: list[int], width: int) -> int:
    """The rows, each below 2^width, side by side, the first at bit 0, joined
    in pairs, then pairs of pairs: log2(len(rows)) rounds that each move
    every bit once, where OR-ing each row into a growing int is quadratic."""
    while len(rows) > 1:
        pairs = iter(rows)
        joined = [low | high << width for low, high in zip(pairs, pairs)]
        if len(rows) & 1:
            joined.append(rows[-1])
        rows, width = joined, width << 1
    return rows[0]


def _positions(bits: int) -> list[int]:
    """The positions of the set bits, lowest first, one step per set bit."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


class _View:
    """Resolves one copy of the signature against a concrete state."""

    def __init__(self, state: State):
        self.state = state
        self._tuples: dict[str, frozenset[tuple[int, ...]]] = {}
        self._members: dict[str, int] = {}

    def tuples(self, name: str, width: int) -> frozenset[tuple[int, ...]]:
        """The symbol's stored tuples, checked once to have the given width."""
        ts = self._tuples.get(name)
        if ts is None:
            ts = self.state.tuples(name)
            for t in ts:
                if len(t) != width:
                    raise Unrepresentable(
                        f"{name!r} holds {t}, which is not a {width}-tuple"
                    )
            self._tuples[name] = ts
        return ts

    def members(self, name: str, s: OrdinalSet) -> int:
        """The stored elements of the unary relation s, named name, as one
        int: bit e for each element e."""
        bits = self._members.get(name)
        if bits is None:
            bits = self._members[name] = sum(1 << e for e in s.elements)
        return bits


class _Axis:
    """A bound variable: its binding depth, the increasing values it runs
    over, and the all-ones pattern of its cells. The values are a range
    from 0, or [0, B] followed by the far representatives; dense counts
    the leading values that equal their index, and low is their pattern."""

    __slots__ = ("depth", "bit", "values", "size", "full", "dense", "low")

    def __init__(self, depth: int, values: Sequence[int]):
        self.depth = depth
        self.bit = 1 << depth
        self.values = values
        self.size = len(values)
        self.full = (1 << self.size) - 1
        dense = self.size
        while dense and values[dense - 1] != dense - 1:
            dense -= 1
        self.dense = dense
        self.low = (1 << dense) - 1

    def below(self, value: int) -> int:
        """How many of the values lie below value."""
        return value if 0 <= value <= self.dense else bisect_left(self.values, value)

    def index(self, value: int) -> int | None:
        """The index of value among the values, or None."""
        if 0 <= value < self.dense:
            return value
        i = bisect_left(self.values, value)
        return i if i < self.size and self.values[i] == value else None

    def run(self, lo: int, hi: int) -> tuple[int, int, int]:
        """The open formula true where the variable's index lies in [lo, hi)."""
        return (((1 << hi - lo) - 1) << lo if lo < hi else 0), self.bit, self.full


class _Evaluator:
    """The semantics of each node kind for one probe set-up.

    A closed node's value is a plain int or bool. An open formula is a
    triple (bits, reads, full): reads has bit d set when an atom it
    evaluated read the variable bound at depth d, and bits is dense over
    those variables' axes, bit i the truth at the cell whose mixed-radix
    position is i, the shallowest read variable's index the lowest digit;
    full is the all-ones pattern of those cells. An open term is a bound
    variable's _Axis. Operands that read different depths are widened to
    the union before they combine.
    Patterns that depend only on the set-up and the axes (x = y, x < y,
    the bound masks and the shift masks that widen a value) are kept in
    the set-up's patterns, shared by every context on it.

    Two dispatchers reach the semantics: eval interprets a raw formula
    node by node, and an interned formula's closures (see
    Interned._compile) call them directly and keep each closed node's
    value in the context's memo. Each dispatcher is the faster one for its
    traffic; see the module docstring."""

    def __init__(self, ctx: "EvalContext", anchor_max: int, setup: _Setup):
        self.views = ctx.views
        self.domain = ctx.domain
        self.memo = ctx.memo
        self.anchor_max = anchor_max
        # the range [0, n) that every quantifier runs over
        self.quant_values = setup.quant_values
        self.patterns = setup.patterns
        # the probe set-up, which with a node's identity keys its memo entry
        self.scope = (anchor_max, len(self.quant_values))
        # each bound variable's axis, outermost first
        self.bound: dict[str, _Axis] = {}

    # -- plumbing ----------------------------------------------------------

    def view(self, copy: int | None) -> _View:
        try:
            return self.views[copy]
        except KeyError:
            if copy is None:
                raise Unsupported(
                    "bare symbol reference in a two-state evaluation; "
                    "stamp the formula with copy indices"
                ) from None
            raise Unsupported(
                f"copy index @{copy} has no state here; use the two-state entry point"
            ) from None

    def bind(self, var: str, values: Sequence[int]) -> _Axis:
        """Bind var one level deeper than every bound variable."""
        if var in self.bound:
            raise Unsupported(f"rebinding of {var!r} inside its own scope")
        key = ("axis", len(self.bound), len(values))
        axis = self.patterns.get(key)
        if axis is None:
            axis = self.patterns[key] = _Axis(len(self.bound), values)
        self.bound[var] = axis
        return axis

    def _check_cells(self, what: str, reads: int, cells: int) -> None:
        """Raise Unsupported when a table would pass _MAX_CELLS cells,
        naming what it is for, the variables of reads and its cells."""
        if cells > _MAX_CELLS:
            names = ", ".join(v for v, a in self.bound.items() if reads & a.bit)
            raise Unsupported(
                f"{what} over {names} needs a table of {cells} cells, more than "
                f"the {_MAX_CELLS} it may have"
            )

    def _operands(self, left: Any, right: Any) -> tuple[int, int, int, int]:
        """Two formulas, one of them open, over the same cells: (left bits,
        right bits, reads, full). A closed operand becomes the all-ones or
        the zero pattern of the other's cells."""
        if type(left) is not tuple:
            bits, reads, full = right
            return (full if left else 0), bits, reads, full
        if type(right) is not tuple:
            bits, reads, full = left
            return bits, (full if right else 0), reads, full
        if left[1] == right[1]:
            return left[0], right[0], left[1], left[2]
        reads = left[1] | right[1]
        lb, full = self._widen(left, reads)
        rb, _ = self._widen(right, reads)
        return lb, rb, reads, full

    def _widen(self, value: tuple[int, int, int], reads: int) -> tuple[int, int]:
        """An open formula's bits over the axes of reads, a superset of its
        own, and the all-ones pattern of those cells. Each missing axis is
        inserted in turn: the blocks of cells above it move apart by its
        length (see _spread), and each block below it is repeated once per
        candidate."""
        bits, have, full = value
        below, above = 1, full.bit_length()
        for axis in self.bound.values():
            if not reads >> axis.depth & 1:
                continue
            if have >> axis.depth & 1:
                above //= axis.size
            elif axis.size > 1:
                self._check_cells("a connective", reads, below * axis.size * above)
                if above > 1:
                    for mask, shift in self._spread(below, axis.size, above):
                        moved = bits & mask
                        bits ^= moved
                        bits |= moved << shift
                bits = _tile(bits, below, axis.size)
            below *= axis.size
        return bits, (1 << below) - 1

    def _spread(self, width: int, factor: int, count: int) -> list[tuple[int, int]]:
        """The (mask, shift) steps that move count blocks of width bits,
        block h at h * width, to h * width * factor: from the highest bit
        of h down, the blocks with that bit set move together."""
        key = ("spread", width, factor, count)
        steps = self.patterns.get(key)
        if steps is None:
            steps = []
            stride = width * factor
            for j in reversed(range((count - 1).bit_length())):
                half = 1 << j
                # before this step, the blocks whose indices agree above bit
                # j form a group; group g starts at g * 2 * half * stride
                groups, rest = divmod(count, 2 * half)
                upper = ((1 << half * width) - 1) << half * width
                mask = _tile(upper, 2 * half * stride, groups) if groups else 0
                if rest > half:
                    mask |= ((1 << (rest - half) * width) - 1) << (
                        groups * 2 * half * stride + half * width
                    )
                steps.append((mask, half * (stride - width)))
            self.patterns[key] = steps
        return steps

    # -- the semantics of terms --------------------------------------------

    def literal(self, value: OrdinalNotation) -> int:
        if not value.is_finite:
            raise Unsupported(f"cannot evaluate the infinite literal {value}")
        return value.to_int()

    def constant(self, name: str, copy: int | None) -> int:
        state = self.view(copy).state
        # State.constant checks the kind; it runs only for a missing name or
        # a value that is not a constant, and raises MissingSymbol naming it
        value = state.by_name.get(name)
        return value if type(value) is int else state.constant(name)

    def var(self, name: str) -> _Axis:
        try:
            return self.bound[name]
        except KeyError:
            raise NotClosed(f"free variable {name!r} in a closed context") from None

    # -- the semantics of formulas -----------------------------------------

    def equal(self, left: Any, right: Any) -> Any:
        return self._compare(False, left, right)

    def less(self, left: Any, right: Any) -> Any:
        """A membership atom: on the naturals, x in y is x < y."""
        return self._compare(True, left, right)

    def _compare(self, less: bool, left: Any, right: Any) -> Any:
        """left < right when less, else left = right."""
        if type(left) is _Axis:
            if type(right) is _Axis:
                return self._pair(less, left, right)
            return left.run(0, left.below(right)) if less else self._at(left, right)
        if type(right) is _Axis:
            if less:
                return right.run(right.below(left + 1), right.size)
            return self._at(right, left)
        return left < right if less else left == right

    def _at(self, axis: _Axis, value: int) -> tuple[int, int, int]:
        """The open formula true where the axis's variable equals value."""
        i = axis.index(value)
        return (0 if i is None else 1 << i), axis.bit, axis.full

    def _pair(self, less: bool, x: _Axis, y: _Axis) -> tuple[int, int, int]:
        """x < y when less, else x = y, over two bound variables."""
        if x is y:
            return (0 if less else x.full), x.bit, x.full
        # the shallower axis is the lower digit
        low, high = (x, y) if x.depth < y.depth else (y, x)
        key = ("pair", less, x is low, low.size, high.size)
        bits = self.patterns.get(key)
        if bits is None:
            what = "the comparison " + ("'<'" if less else "'='")
            self._check_cells(what, x.bit | y.bit, low.size * high.size)
            # one run of the lower axis per candidate of the higher
            rows = []
            for value in high.values:
                if not less:
                    i = low.index(value)
                    row = 0 if i is None else 1 << i
                elif x is low:
                    row = (1 << low.below(value)) - 1
                else:
                    row = low.full ^ ((1 << low.below(value + 1)) - 1)
                rows.append(row)
            bits = self.patterns[key] = _rows(rows, low.size)
        return bits, x.bit | y.bit, (1 << low.size * high.size) - 1

    def unary(self, view: _View, name: str, arg: Any) -> Any:
        s = view.state.relation(name)
        if type(arg) is _Axis:
            # the stored elements that are candidates are their own indices
            bits = view.members(name, s) & arg.low
            return (bits if s.is_finite else arg.full ^ bits), arg.bit, arg.full
        return s.member(arg)

    def nary(self, view: _View, name: str, args: list) -> Any:
        ts = view.tuples(name, len(args))
        reads = 0
        for a in args:
            if type(a) is _Axis:
                reads |= a.bit
        if not reads:
            return tuple(args) in ts
        # each read axis's stride in the cells of reads
        strides, cells = {}, 1
        for axis in self.bound.values():
            if reads & axis.bit:
                strides[axis] = cells
                cells *= axis.size
        if len(strides) > 1:
            self._check_cells(f"the atom {name!r}", reads, cells)
        bits = 0
        # one cell per stored tuple that every argument matches
        for t in ts:
            at: dict[_Axis, int] = {}
            for a, value in zip(args, t):
                if type(a) is _Axis:
                    i = a.index(value)
                    if i is None or at.setdefault(a, i) != i:
                        break
                elif a != value:
                    break
            else:
                bits |= 1 << sum(i * strides[a] for a, i in at.items())
        return bits, reads, (1 << cells) - 1

    def negate(self, body: Any) -> Any:
        if type(body) is tuple:
            bits, reads, full = body
            return full ^ bits, reads, full
        return not body

    def settle(self, kind: type, left: Any) -> Any:
        """left (And, Or, Implies or Iff) right, when the left operand alone
        decides it, else None. Only a closed left operand can; settling on
        it means only the live arm of a guard cascade pays its cost. On a
        one-element surrogate a quantifier's value is closed even when its
        body reads an enclosing variable (see quantify), so a connective
        can settle there on an operand that reads one."""
        if type(left) is tuple or kind is Iff:
            return None
        if kind is And:
            return None if left else left
        if kind is Or:
            return left if left else None
        return None if left else True

    def combine(self, kind: type, left: Any, right: Any) -> Any:
        """left (And, Or, Implies or Iff) right, where settle found the
        right operand needed."""
        if kind is Iff:
            if type(left) is not tuple and type(right) is not tuple:
                return left == right
            lb, rb, reads, full = self._operands(left, right)
            return full ^ lb ^ rb, reads, full
        if type(left) is not tuple:
            # a closed left operand that did not settle passes the right one on
            return right
        lb, rb, reads, full = self._operands(left, right)
        if kind is And:
            return lb & rb, reads, full
        if kind is Or:
            return lb | rb, reads, full
        return (full ^ lb) | rb, reads, full

    def quantify(
        self,
        f: "Exists | Forall",
        body_rank: int | None,
        body: Callable[[Any], Any],
        arg: Any,
    ) -> Any:
        """f's quantifier over the candidates, where body(arg) evaluates
        f's body with f.var bound. A body_rank of None, as the interpreter
        passes, is read off f.body when the probe bound needs it, through
        quantifier_rank, which returns the rank stored there by the fold of
        the formula's static facts.

        A body that does not read f.var is the value. One that does has
        f.var, the deepest variable, as its highest digit, so its cells
        are one block per candidate, and halving shifts OR the blocks
        together: exists is that OR over the allowed candidates, forall
        the complement of the OR of the body's complement. The result is a
        closed bool when no other depth is read, or when the other read
        depths have one cell between them."""
        own = self.bind(f.var, self.quant_values)
        try:
            value = body(arg)
        finally:
            del self.bound[f.var]
        if type(value) is not tuple or not value[1] & own.bit:
            return value
        bits, reads, full = value
        reads ^= own.bit
        exists = isinstance(f, Exists)
        cells, count = full.bit_length() // own.size, own.size
        if not exists:
            bits ^= full
        if self.domain.is_omega:
            if body_rank is None:
                body_rank = quantifier_rank(f.body)
            allowed, count = self._bound_mask(own, reads, cells, body_rank)
            bits &= allowed
        if not reads or cells == 1:
            return bool(bits) if exists else not bits
        while count > 1:
            count = (count + 1) >> 1
            bits |= bits >> count * cells
        full = (1 << cells) - 1
        bits &= full
        return (bits if exists else full ^ bits), reads, full

    def _bound_mask(
        self, own: _Axis, reads: int, cells: int, body_rank: int
    ) -> tuple[int, int]:
        """The cells, over the read axes and then the innermost variable's,
        whose candidate for it lies within the probe bound, and how many of
        its candidates any cell allows. The bound is the anchors and the
        values of the enclosing variables that the body reads, plus the
        margin 2^rank + 2 that leaves room for one far representative.
        Called with the innermost variable unbound."""
        margin = _margin(body_rank)
        # a candidate up to this is allowed in every cell
        low = self.anchor_max + margin
        if not reads:
            count = own.below(low + 1)
            return (1 << count) - 1, count
        axes = [a for a in self.bound.values() if reads & a.bit]
        key = ("mask", margin, *(a.size for a in axes))
        mask = self.patterns.get(key)
        if mask is None:
            self._check_cells("a quantifier's probe bound", reads, cells * own.size)
            rows = []
            for value in own.values:
                if value <= low:
                    block = (1 << cells) - 1
                else:
                    # the cells where some read variable is at least value - margin
                    block, stride = 0, 1
                    for a in axes:
                        lo = a.below(value - margin)
                        if lo < a.size:
                            run = ((1 << (a.size - lo) * stride) - 1) << lo * stride
                            span = stride * a.size
                            block |= _tile(run, span, cells // span)
                        stride *= a.size
                    if not block:
                        break
                rows.append(block)
            mask = self.patterns[key] = (_rows(rows, cells), len(rows))
        return mask

    # -- the interpreter ---------------------------------------------------

    def eval(self, f: Formula) -> Any:
        if isinstance(f, Apply):
            if f.name == MEMBERSHIP:
                return self.less(self.term(f.args[0]), self.term(f.args[1]))
            view = self.view(f.copy)
            args = [self.term(a) for a in f.args]
            if len(args) == 1:
                return self.unary(view, f.name, args[0])
            return self.nary(view, f.name, args)
        if isinstance(f, Equal):
            return self.equal(self.term(f.left), self.term(f.right))
        if isinstance(f, Truth):
            return f.value
        if isinstance(f, Not):
            return self.negate(self.eval(f.body))
        if isinstance(f, (And, Or, Implies, Iff)):
            kind, left = type(f), self.eval(f.left)
            settled = self.settle(kind, left)
            if settled is not None:
                return settled
            return self.combine(kind, left, self.eval(f.right))
        if isinstance(f, (Exists, Forall)):
            return self.quantify(f, None, self.eval, f.body)
        raise TypeError(f"not a formula: {f!r}")

    def term(self, t: Term) -> Any:
        if isinstance(t, Var):
            return self.var(t.name)
        if isinstance(t, Const):
            return self.constant(t.name, t.copy)
        if isinstance(t, OrdinalLiteral):
            return self.literal(t.value)
        raise TypeError(f"not a term: {t!r}")


def _check_omega_ok(views: Mapping[int | None, State]) -> None:
    for s in views.values():
        if s.kappa.is_finite:
            raise Unsupported(
                "Omega evaluation needs an infinite universe; this state has "
                f"kappa = {s.kappa}"
            )


# The most cells a bitset over two or more axes may have: 2 MiB of bits.
# The largest table of the test suite and the benchmark has 2 744 000
# cells. Without a cap, at w a state whose support reaches 2^21 would ask
# for 2^42 bits and end in a bare MemoryError.
_MAX_CELLS = 1 << 24

# how many times the longest quantifier range it has built a table keeps
# in candidates; the bridge workload's machines need 42 to keep every
# anchor they meet
_KEPT = 64

# A node's closure: its value under an evaluator.
_Closure = Callable[[_Evaluator], Any]


class Interned:
    """Formulas hash-consed into one table: structurally equal subformulas
    become one object (Filliatre & Conchon, "Type-safe modular
    hash-consing", ML Workshop 2006). Each node carries its static facts,
    folded from its children's (logic.static_facts), and the table keeps,
    keyed by identity, a closure built from its children's closures. Adding
    a formula takes one table lookup per tree node and one construction,
    with its facts and closure, per node the table lacks. An EvalContext
    built with the table evaluates the formulas it returned, and only those.

    The table also keeps the probe set-ups its contexts ask for (see
    setup), so that a machine's steps do not rebuild them, or the patterns
    built on them, state after state."""

    def __init__(self) -> None:
        self._nodes: dict[object, Node] = {}
        self.closures: dict[int, _Closure] = {}
        self._setups: dict[tuple, _Setup] = {}
        self._held = 0  # the candidates in _setups, counted in elements
        self._longest = 0  # the most quantifier values of any set-up built

    def __len__(self) -> int:
        return len(self._nodes)

    def add(self, formula: Formula, copy: int | None = None) -> Formula:
        """The interned copy of the formula, in one pass that also stamps a
        given copy index on every bare non-membership reference, as
        logic.with_copy does. Each node's key (kind, own fields, interned
        children's identities) is found first; only a new key builds a node."""
        kind, kids = type(formula), ()
        if kind is Apply or kind is Const:
            stamp = formula.copy
            if stamp is None and formula.name != MEMBERSHIP:
                stamp = copy
            if kind is Apply:
                kids = tuple([self.add(a, copy) for a in formula.args])
            key: object = (kind, formula.name, stamp, *map(id, kids))
        elif kind is Not or kind is Exists or kind is Forall:
            kids = (self.add(formula.body, copy),)
            key = (kind, id(kids[0])) if kind is Not else (kind, formula.var, id(kids[0]))
        elif kind is Equal or kind is And or kind is Or or kind is Implies or kind is Iff:
            kids = (self.add(formula.left, copy), self.add(formula.right, copy))
            key = (kind, id(kids[0]), id(kids[1]))
        else:  # Var, OrdinalLiteral and Truth are their own keys
            key = formula
        node = self._nodes.get(key)
        if node is None:
            if kind is Apply:
                node = Apply(formula.name, kids, stamp)
            elif kind is Const:
                node = Const(formula.name, stamp)
            else:
                node = _with_children(formula, kids) if kids else formula
            self.closures[id(node)] = self._compile(node)
            self._nodes[key] = node
        return node

    def setup(self, domain: EvalDomain, anchor_max: int, rank: int, reps: int) -> _Setup:
        """One probe set-up (see _setup_values), built once and shared by
        every context that asks for it.

        Set-ups are kept until their candidates would hold more than _KEPT
        times the longest quantifier range built; then every set-up is
        dropped and keeping starts over. A set-up's patterns are keyed by
        kind and axis lengths, which the table's formulas bound, and each
        holds a bit per cell of the axes it spans, or for the masks that
        widen a value, one such pattern per halving step. So a long
        run that meets ever new anchors holds a fixed multiple of its
        largest set-up, while a machine whose runs revisit the same
        anchors, as the bridge workload's do, builds each set-up once."""
        key = (domain, anchor_max, rank, reps)
        setup = self._setups.get(key)
        if setup is None:
            setup = _Setup(*_setup_values(domain, anchor_max, rank, reps), {})
            self._longest = max(self._longest, len(setup.quant_values))
            if setup.candidates is not None:
                self._held += len(setup.candidates)
                if self._held > _KEPT * self._longest:
                    self._setups.clear()
                    self._held = len(setup.candidates)
            self._setups[key] = setup
        return setup

    def _compile(self, node: Node) -> _Closure:
        """The node's closure. A closed formula node's closure computes it
        once per context, keyed by the node's identity and, when it holds
        a quantifier, also by the anchor maximum and candidate count,
        which fix the probe bounds, and by the variables bound around it,
        which decide whether it rebinds one."""
        c = [self.closures[id(k)] for k in children(node)]
        if isinstance(node, Var):
            name = node.name
            return lambda ev: ev.var(name)
        if isinstance(node, Const):
            name, copy = node.name, node.copy
            return lambda ev: ev.constant(name, copy)
        if isinstance(node, OrdinalLiteral):
            value = node.value
            return lambda ev: ev.literal(value)
        if isinstance(node, Truth):
            value = node.value
            return lambda ev: value
        fn: _Closure
        if isinstance(node, Apply):
            name, copy = node.name, node.copy
            if name == MEMBERSHIP:
                a, b = c
                fn = lambda ev: ev.less(a(ev), b(ev))
            elif len(c) == 1:
                (a,) = c
                fn = lambda ev: ev.unary(ev.view(copy), name, a(ev))
            else:
                fn = lambda ev: ev.nary(ev.view(copy), name, [a(ev) for a in c])
        elif isinstance(node, Equal):
            a, b = c
            fn = lambda ev: ev.equal(a(ev), b(ev))
        elif isinstance(node, Not):
            (a,) = c
            fn = lambda ev: ev.negate(a(ev))
        elif isinstance(node, (And, Or, Implies, Iff)):
            kind, (a, b) = type(node), c

            def fn(ev: _Evaluator) -> Any:
                left = a(ev)
                settled = ev.settle(kind, left)
                return ev.combine(kind, left, b(ev)) if settled is None else settled

        else:
            (a,), body_rank = c, quantifier_rank(node.body)
            fn = lambda ev: ev.quantify(node, body_rank, a, ev)
        free, rank, _ = static_facts(node)
        if free:
            return fn
        nid = id(node)

        def memo(ev: _Evaluator) -> Any:
            key = (nid, ev.scope, tuple(ev.bound)) if rank else nid
            value = ev.memo.get(key)
            if value is None:
                value = ev.memo[key] = fn(ev)
            return value

        return memo


class EvalContext:
    """Evaluation over fixed states in one domain: one view per state, one
    evaluator per probe set-up and, over interned formulas, every closed
    node already evaluated. Build one per
    state; it answers every formula asked of that state. Over interned
    formulas the set-ups come from the table, which keeps them across
    contexts; a raw formula's context builds its own."""

    def __init__(
        self,
        views: Mapping[int | None, State],
        domain: EvalDomain,
        interned: Interned | None = None,
    ):
        made: dict[int, _View] = {}
        self.views = {k: made.setdefault(id(s), _View(s)) for k, s in views.items()}
        self.states = views
        self.domain = domain
        self.interned = interned
        self.memo: dict[object, Any] = {}
        self._setups: dict[tuple[int, int, int], tuple[_Evaluator, Sequence[int] | None]] = {}

    @staticmethod
    def single(
        state: State, domain: EvalDomain, interned: Interned | None = None
    ) -> "EvalContext":
        """A context for one state, read by bare and copy-0 references."""
        return EvalContext({None: state, 0: state}, domain, interned)

    def _anchor(self, literals: frozenset[OrdinalNotation]) -> int:
        """A public entry's largest anchor: its states' support top and the
        formula's finite literals at w, 0 on a surrogate (see _truth_table)."""
        if not self.domain.is_omega:
            return 0
        return _anchor_max(literals, _support_max(self.states.values()))

    def _setup(
        self, anchor_max: int, rank: int, reps: int
    ) -> tuple[_Evaluator, Sequence[int] | None]:
        """The evaluator and the candidates for one anchor maximum, rank
        and number of far representatives, built once per context. The
        set-up (see _setup_values) comes from the interned table when there
        is one, and is built here otherwise.
        """
        key = (anchor_max, rank, reps)
        setup = self._setups.get(key)
        if setup is not None:
            return setup
        if self.domain.is_omega:
            _check_omega_ok(self.states)
        if self.interned is None:
            made = _Setup(*_setup_values(self.domain, anchor_max, rank, reps), {})
        else:
            made = self.interned.setup(self.domain, anchor_max, rank, reps)
        setup = self._setups[key] = (_Evaluator(self, anchor_max, made), made.candidates)
        return setup

    def _truth_table(
        self,
        formula: Formula,
        rank: int,
        anchor_max: int,
        variables: tuple[str, ...] = (),
        reps: int = 0,
    ) -> tuple[Any, Sequence[int] | None]:
        """The formula's truth table and the candidates its variables range
        over. rank is the formula's quantifier rank and anchor_max its
        largest anchor, which the caller works out: a public entry from its
        states' support (see _anchor), a step from each part's footprint
        (see validator), and 0 on a surrogate, which probes its whole universe.

        With variables, the table is a bitset over len(candidates) ** k
        cells for k variables: bit i is the truth at the candidates whose
        indices are the digits of i in base len(candidates), the first
        variable's the lowest. A value that reads no variable is all ones
        or zero. Variables come with reps > 0 far representatives (see
        _setup_values). With no variables the table is a single truth
        value and the candidates are None.
        """
        ev, candidates = self._setup(anchor_max, rank, reps)
        try:
            for x in variables:
                ev.bind(x, candidates)
            if self.interned is None:
                value = ev.eval(formula)
            else:
                value = self.interned.closures[id(formula)](ev)
            every = (1 << len(variables)) - 1
            if type(value) is tuple:
                value = value[0] if value[1] == every else ev._widen(value, every)[0]
            elif variables:
                cells = len(candidates) ** len(variables)
                if len(variables) > 1:
                    ev._check_cells("the formula", every, cells)
                value = (1 << cells) - 1 if value else 0
        finally:
            ev.bound.clear()
        return value, candidates

    @_depth_checked
    def sentence(self, formula: Formula) -> bool:
        """Truth of a sentence."""
        free, rank, literals = static_facts(formula)
        if free:
            raise NotClosed(f"free variables {sorted(free)} in sentence")
        return bool(self._truth_table(formula, rank, self._anchor(literals))[0])

    @_depth_checked
    def defined_set(self, formula: Formula, var: str | None = None) -> OrdinalSet:
        """The set a one-free-variable formula defines; see defined_set."""
        fv, rank, literals = static_facts(formula)
        if var is None:
            if len(fv) != 1:
                raise NotClosed(f"need exactly one free variable, got {sorted(fv)}")
            var = next(iter(fv))
        elif fv - {var}:
            raise NotClosed(f"extra free variables {sorted(fv - {var})}")
        bits, candidates = self._truth_table(formula, rank, self._anchor(literals), (var,), 3)
        return self._read_set(bits, candidates, formula)

    @_depth_checked
    def defined_relation(
        self, formula: Formula, variables: tuple[str, ...] | None = None
    ) -> frozenset[tuple[int, ...]]:
        """The finite relation a formula defines; see defined_relation."""
        fv, rank, literals = static_facts(formula)
        if variables is None:
            variables = tuple(sorted(fv))
        if not fv <= set(variables):
            raise NotClosed(
                f"variable list {variables} misses free variables {sorted(fv - set(variables))}"
            )
        if not variables:
            raise NotClosed("defined_relation needs at least one variable")
        bits, candidates = self._truth_table(
            formula, rank, self._anchor(literals), tuple(variables), 1
        )
        return self._read_relation(bits, candidates, variables)

    def _read_set(self, bits: int, candidates: Sequence[int], formula: Formula) -> OrdinalSet:
        """The set a one-variable table with three far representatives
        defines: cofinite when all three hold, an error when they differ."""
        if not self.domain.is_omega:
            return OrdinalSet.finite([candidates[i] for i in _positions(bits)])
        head = len(candidates) - 3
        tail = bits >> head
        if tail and tail != 7:
            raise ThresholdViolation(
                f"tail representatives at {list(candidates[head:])} disagree for "
                f"{formula!r}; the evaluation bound did not stabilise this formula"
            )
        if tail:
            bits = ~bits
        members = [candidates[i] for i in _positions(bits & ((1 << head) - 1))]
        return OrdinalSet.cofinite(members) if tail else OrdinalSet.finite(members)

    def _read_relation(
        self, bits: int, candidates: Sequence[int], variables: Sequence[str]
    ) -> frozenset[tuple[int, ...]]:
        """The tuples a table with one far representative defines; at w one
        that holds at the representative is infinite and Unrepresentable."""
        n, k = len(candidates), len(variables)
        if self.domain.is_omega:
            for i, x in enumerate(variables):
                # the cells whose i-th variable is the far representative
                far = ((1 << n**i) - 1) << (n - 1) * n**i
                if bits & _tile(far, n ** (i + 1), n ** (k - 1 - i)):
                    raise Unrepresentable(
                        f"formula defines an infinite relation (true at {x} = {candidates[-1]})"
                    )
        rows = []
        for p in _positions(bits):
            row = []
            for _ in range(k):
                p, i = divmod(p, n)
                row.append(candidates[i])
            rows.append(tuple(row))
        return frozenset(rows)


def sat(formula: Formula, state: State, domain: EvalDomain) -> bool:
    """Truth of a sentence in one state.

    Copy-0 references are allowed and read the same state, so transition
    witnesses can be tested directly; copy-1 references are rejected.
    """
    return EvalContext.single(state, domain).sentence(formula)


def sat2(
    formula: Formula, states: tuple[State, State], domain: EvalDomain
) -> bool:
    """Truth of a binary sentence over a pair of states (copy 0, copy 1)."""
    s1, s2 = states
    return EvalContext({0: s1, 1: s2}, domain).sentence(formula)


def defined_set(
    formula: Formula, state: State, domain: EvalDomain, var: str | None = None
) -> OrdinalSet:
    """The subset of the universe defined by a one-free-variable formula.

    In Omega mode the candidate segment [0, B] is evaluated exactly and
    the tail beyond B is decided by three spread representatives, which
    must agree; if they do not, the bound was not actually stable and
    ThresholdViolation is raised rather than returning a guess.
    """
    return EvalContext.single(state, domain).defined_set(formula, var)


def defined_relation(
    formula: Formula,
    state: State,
    domain: EvalDomain,
    variables: tuple[str, ...] | None = None,
) -> frozenset[tuple[int, ...]]:
    """The finite relation defined by a formula with several free variables.

    Tuples are ordered by the given variable tuple (alphabetical when
    omitted). A definable relation that meets the far representatives,
    and so would be infinite, raises Unrepresentable.
    """
    return EvalContext.single(state, domain).defined_relation(formula, variables)
