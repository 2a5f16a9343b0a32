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
of one axis, R(x) masks an int with one bit per stored element of R, and
an n-ary atom sets one cell per stored tuple. x = y, x < y, the bound
masks and the shift masks that widen a value depend only on the probe
set-up and the axes, so each is built once and kept with the set-up, its
rows joined pairwise. A table over two or more axes with more than
_MAX_CELLS cells, whether an atom, a pattern, a widened value or the
truth table of a closed value, raises Unsupported before it is built; a
table over one axis has no cap.

On a one-element surrogate every axis has length 1, so a quantifier's
value is a plain bool even when its body reads an enclosing variable. A
connective may then settle on it and skip its other arm: over {0},
forall y. ((exists z. y = z) | R(w)) is true, where a larger universe
evaluates R(w) and raises Unsupported for the infinite literal. No value
differs; only an error that the skipped arm would raise goes unseen.

Every entry evaluates through an EvalContext, one per state, which reads
its states directly, and through its one method read: it switches the
context in place to a truth table's probe set-up, evaluates the table and
decodes it as the kind of value asked for, a truth value, a set, one
element or a relation. The kind alone fixes how many far representatives
the candidates end in, and one reader per kind decodes the set bits,
lowest first, so how a bit's index maps back to a candidate is known to
this module alone. sat, sat2, defined_set and defined_relation check their
arguments and call read, anchored on the top of their states' support and
the formula's literals; a machine's step calls it for each part, anchored
on the part's footprint values and literals. A set-up's candidates and
quantifier values are immutable and hold a few ints each, so only its
patterns grow with the support. A set-up depends on its key alone, never
on the formulas or the machine it serves, so one table per process builds
each set-up and its patterns once for every context: the differential
workload meets 81 set-ups in 10 000 contexts a round, and the bridge
workload's machines share theirs. The table drops its set-ups once these
pass a fixed number of bits (see _setup). Each node kind's semantics is
written once, as a method of EvalContext, and the formula picks which of
two dispatchers reaches it:

* A raw formula, as the public entries are usually given, is interpreted
  node by node. Its static facts are folded on the first call and stored
  on each of its nodes (logic.static_facts), so the benchmark's ten
  evaluations of one differential sentence walk it once, and at w each
  quantifier reads its body's stored rank. It is not compiled, because a
  raw formula is evaluated a few times at most and compiling it would
  cost more than it saves: interning every sentence of the differential
  workload walks 112 200 nodes, where the interpreter, which skips the
  arms that a settled connective does not need, reaches 51 220, and the
  workload took almost three times as long.
* A machine's transition is compiled once, at admission: its witness
  bodies are interned into one table (Interned), so structurally equal
  subformulas are one object, whose static facts are folded from its
  children's stored ones and whose closure, stored on it likewise, is
  built from theirs; any context runs a formula's closure when it has
  one. A step runs every witness's closures under one context for the
  state, which computes each closed node once, however many witnesses
  share it.
  Running the interned bodies through the interpreter with the same memo
  made the benchmark's bridge and constructions workloads 10-20% slower.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from bisect import bisect_left
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

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
) -> tuple[range, range | _Candidates | None]:
    """The quantifier values and the candidates of one probe set-up.

    A surrogate's quantifier values and candidates are its whole universe.
    At w the candidates are [0, B] followed by reps far representatives,
    each 2^rank + 2 beyond the one before, and the quantifiers range up to
    the last of them plus the slack of the rank. A sentence asks for no
    representatives and gets no candidates. Both are immutable and hold a
    few ints whatever B is, so a set-up can be shared. A candidate before
    the far representatives is its own index, which the readers rely on.
    """
    if not domain.is_omega:
        universe = range(domain.size)
        return universe, universe if reps else None
    if not reps:
        return range(anchor_max + _slack(rank) + 1), None
    candidates = _Candidates(_bound(anchor_max, rank), _margin(rank), reps)
    return range(candidates[-1] + _slack(rank) + 1), candidates


class _Candidates(Sequence):
    """The candidates at w, [0, bound] followed by reps far representatives
    margin apart, each computed when it is read."""

    __slots__ = ("bound", "margin", "size")

    def __init__(self, bound: int, margin: int, reps: int):
        self.bound, self.margin, self.size = bound, margin, bound + 1 + reps

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> int:
        if not -self.size <= i < self.size:
            raise IndexError("candidate index out of range")
        i %= self.size
        return i if i <= self.bound else self.bound + (i - self.bound) * self.margin

    def __iter__(self) -> Iterator[int]:
        step = self.margin
        return chain(range(self.bound + 1), range(self.bound + step, self[-1] + 1, step))


class _Setup:
    """One probe set-up (see _setup_values): the values its quantifiers
    range over, the candidates of its truth tables' variables, and what
    its contexts build once for the set-up (axes and patterns; see
    EvalContext), keyed by kind and axis lengths, and the bits it holds:
    one per quantifier value, and each pattern's as it is stored."""

    __slots__ = ("quant_values", "candidates", "patterns", "cells")

    def __init__(self, domain: EvalDomain, anchor_max: int, rank: int, reps: int):
        self.quant_values, self.candidates = _setup_values(domain, anchor_max, rank, reps)
        self.patterns: dict[tuple, Any] = {}
        self.cells = len(self.quant_values)


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


class EvalContext:
    """Evaluation over fixed states in one domain, given as a map from
    copy index to State: the semantics of each node kind, under one probe
    set-up at a time. Build one per state; read, its one entry, answers
    every formula asked of that state as a value of the kind asked for
    and, over interned formulas, computes each closed node once. No other
    module reads the set-ups, tables or readers behind it. It is given
    its states and its domain, nothing more. Its
    set-ups, with the patterns that depend only on a set-up and the axes
    (x = y, x < y, the bound masks and the shift masks that widen a
    value), come from the one table that keeps them across the contexts
    of the process (see _setup). An atom reads its copy's State directly.

    A closed node's value is a plain int or bool. An open formula is a
    triple (bits, reads, full): reads has bit d set when an atom it
    evaluated read the variable bound at depth d, and bits is dense over
    those variables' axes, bit i the truth at the cell whose mixed-radix
    position is i, the shallowest read variable's index the lowest digit;
    full is the all-ones pattern of those cells. An open term is a bound
    variable's _Axis. Operands that read different depths are widened to
    the union before they combine.

    Two dispatchers reach the semantics (see the module docstring): eval
    interprets a raw formula node by node, and the closures that an
    interned formula carries (see _compile) call them directly and keep
    each closed node's value in the memo."""

    def __init__(self, states: Mapping[int | None, State], domain: EvalDomain):
        self.states = states
        self.domain = domain
        self.memo: dict[object, Any] = {}
        # the probe set-up in use and its key, (anchor max, rank, reps), which
        # with a node's identity keys a quantified node's memo entry; see _use
        self.key: tuple[int, int, int] | None = None
        self.setup: _Setup | None = None
        self.anchor_max = 0
        # each bound variable's axis, outermost first
        self.bound: dict[str, _Axis] = {}

    @staticmethod
    def single(state: State, domain: EvalDomain) -> "EvalContext":
        """A context for one state, read by bare and copy-0 references."""
        return EvalContext({None: state, 0: state}, domain)

    # -- plumbing ----------------------------------------------------------

    def _use(self, anchor_max: int, rank: int, reps: int) -> Sequence[int] | None:
        """Switch to the probe set-up of one anchor maximum, rank and number
        of far representatives (see _setup), unless it is in use, and
        return its candidates. The first switch at w checks that every
        state's universe is infinite."""
        key = (anchor_max, rank, reps)
        if key != self.key:
            if self.key is None and self.domain.is_omega:
                for s in self.states.values():
                    if s.kappa.is_finite:
                        raise Unsupported("Omega evaluation needs an infinite universe; "
                                          f"this state has kappa = {s.kappa}")
            self.setup = _setup(self.domain, anchor_max, rank, reps)
            self.key, self.anchor_max = key, anchor_max
        return self.setup.candidates

    def state(self, copy: int | None) -> State:
        try:
            return self.states[copy]
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
        axis = self.setup.patterns.get(key)
        if axis is None:
            axis = self._keep(key, _Axis(len(self.bound), values), 2 * len(values))
        self.bound[var] = axis
        return axis

    def _keep(self, key: tuple, pattern: Any, cells: int) -> Any:
        """Keep a pattern of the given bits with the set-up, for every
        context on it, and count them (see _setup)."""
        self.setup.patterns[key] = pattern
        self.setup.cells += cells
        return pattern

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
        steps = self.setup.patterns.get(key)
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
            self._keep(key, steps, sum(mask.bit_length() for mask, _ in steps))
        return steps

    # -- the semantics of terms --------------------------------------------

    def literal(self, value: OrdinalNotation) -> int:
        if not value.is_finite:
            raise Unsupported(f"cannot evaluate the infinite literal {value}")
        return value.to_int()

    def constant(self, name: str, copy: int | None) -> int:
        state = self.state(copy)
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
        bits = self.setup.patterns.get(key)
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
            bits = self._keep(key, _rows(rows, low.size), low.size * high.size)
        return bits, x.bit | y.bit, (1 << low.size * high.size) - 1

    def unary(self, state: State, name: str, arg: Any) -> Any:
        s = state.relation(name)
        if type(arg) is _Axis:
            # bit e per stored element e: a candidate below dense is its own index
            bits = sum(1 << e for e in s.elements) & arg.low
            return (bits if s.is_finite else arg.full ^ bits), arg.bit, arg.full
        return s.member(arg)

    def nary(self, state: State, name: str, args: list) -> Any:
        ts = state.tuples(name)
        for t in ts:
            if len(t) != len(args):
                raise Unrepresentable(f"{name!r} holds {t}, which is not a {len(args)}-tuple")
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
        own = self.bind(f.var, self.setup.quant_values)
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
        mask = self.setup.patterns.get(key)
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
            mask = self._keep(key, (_rows(rows, cells), len(rows)), cells * len(rows))
        return mask

    # -- the interpreter ---------------------------------------------------

    def eval(self, f: Formula) -> Any:
        kind = type(f)
        if kind is And or kind is Or or kind is Implies or kind is Iff:
            left = self.eval(f.left)
            settled = self.settle(kind, left)
            if settled is not None:
                return settled
            return self.combine(kind, left, self.eval(f.right))
        if kind is Apply:
            if f.name == MEMBERSHIP:
                return self.less(self.term(f.args[0]), self.term(f.args[1]))
            state = self.state(f.copy)
            args = [self.term(a) for a in f.args]
            if len(args) == 1:
                return self.unary(state, f.name, args[0])
            return self.nary(state, f.name, args)
        if kind is Not:
            return self.negate(self.eval(f.body))
        if kind is Exists or kind is Forall:
            return self.quantify(f, None, self.eval, f.body)
        if kind is Equal:
            return self.equal(self.term(f.left), self.term(f.right))
        if kind is Truth:
            return f.value
        raise TypeError(f"not a formula: {f!r}")

    def term(self, t: Term) -> Any:
        kind = type(t)
        if kind is Var:
            return self.var(t.name)
        if kind is Const:
            return self.constant(t.name, t.copy)
        if kind is OrdinalLiteral:
            return self.literal(t.value)
        raise TypeError(f"not a term: {t!r}")

    # -- the entry ---------------------------------------------------------

    def _anchor(self, literals: frozenset[OrdinalNotation]) -> int:
        """A public entry's largest anchor: its states' support top and the
        formula's finite literals at w, 0 on a surrogate (see read)."""
        if not self.domain.is_omega:
            return 0
        return _anchor_max(literals, _support_max(self.states.values()))

    def read(
        self,
        kind: type,
        formula: Formula,
        rank: int,
        anchor_max: int,
        variables: tuple[str, ...] = (),
    ) -> Any:
        """The value of the given kind that the formula defines over the
        variables: a bool for a sentence, an OrdinalSet, a frozenset of
        tuples for a relation, or an int for one element, the one set bit
        before the far representatives; any other table of that kind is
        read as the set, for the caller to refuse. The kind alone fixes the
        far representatives (see _REPS). rank is the formula's quantifier
        rank and anchor_max its largest anchor, which the caller works out:
        a public entry from its states (see _anchor), a step from each
        part's footprint (see validator), 0 on a surrogate, which probes
        its whole universe. A formula that carries a closure, as an
        interned node does, runs it; any other is interpreted. Over k
        variables the table has len(candidates) ** k cells, bit i the truth
        at the candidates whose indices are the digits of i in base
        len(candidates), the first variable's the lowest."""
        candidates = self._use(anchor_max, rank, _REPS[kind])
        try:
            for x in variables:
                self.bind(x, candidates)
            closure = getattr(formula, "_closure", None)
            value = self.eval(formula) if closure is None else closure(self)
            every = (1 << len(variables)) - 1
            if type(value) is tuple:
                value = value[0] if value[1] == every else self._widen(value, every)[0]
            elif variables:
                cells = len(candidates) ** len(variables)
                if len(variables) > 1:
                    self._check_cells("the formula", every, cells)
                value = (1 << cells) - 1 if value else 0
        finally:
            self.bound.clear()
        if kind is bool:
            return bool(value)
        if kind is frozenset:
            return self._read_relation(value, variables)
        if kind is int:
            # the fast path that every constant part's miss takes
            head = len(candidates) - 3 if self.domain.is_omega else len(candidates)
            top = value.bit_length() - 1
            if 0 <= top < head and value == 1 << top:
                return top
        return self._read_set(value, formula)

    def _read_set(self, bits: int, formula: Formula) -> OrdinalSet:
        """The set a one-variable table with three far representatives
        defines: cofinite when all three hold, an error when they differ."""
        if not self.domain.is_omega:
            return OrdinalSet.finite(_positions(bits))
        candidates = self.setup.candidates
        head = len(candidates) - 3
        tail = bits >> head
        if tail and tail != 7:
            raise ThresholdViolation(
                f"tail representatives at {[candidates[i] for i in (-3, -2, -1)]} disagree for "
                f"{formula!r}; the evaluation bound did not stabilise this formula"
            )
        if tail:
            bits = ~bits
        members = _positions(bits & ((1 << head) - 1))
        return OrdinalSet.cofinite(members) if tail else OrdinalSet.finite(members)

    def _read_relation(self, bits: int, variables: Sequence[str]) -> frozenset[tuple[int, ...]]:
        """The tuples a table with one far representative defines; at w one
        that holds at the representative is infinite and Unrepresentable."""
        candidates = self.setup.candidates
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
                row.append(i)
            rows.append(tuple(row))
        return frozenset(rows)


# The far representatives that each kind of value's candidates end in (see
# _setup_values): none for a sentence, three that must agree for a set or
# an element, one at which no tuple may hold for a relation.
_REPS = {bool: 0, OrdinalSet: 3, int: 3, frozenset: 1}

# The most cells a bitset over two or more axes may have: 2 MiB of bits.
# The largest table of the test suite and the benchmark has 2 744 000
# cells. Without a cap, at w a state whose support reaches 2^21 would ask
# for 2^42 bits and end in a bare MemoryError. It also bounds the bits
# of the set-ups that _SETUPS keeps (see _setup).
_MAX_CELLS = 1 << 24

# the probe set-ups of every context, by (domain, anchor max, rank, reps)
_SETUPS: dict[tuple, _Setup] = {}


def _setup(domain: EvalDomain, anchor_max: int, rank: int, reps: int) -> _Setup:
    """One probe set-up (see _setup_values), built once and shared by every
    context that asks for it, whatever it evaluates.

    Set-ups are kept until a new one would take the bits they hold (see
    _Setup) past _MAX_CELLS, 2 MiB; then every set-up is dropped. A pattern
    over a sentence's axes at anchor a has about a^2 bits or more, so few
    set-ups at large anchors are kept. The machines of a bridge round,
    whose runs revisit the same anchors, build each set-up once between
    them; so does a differential round, whose 81 set-ups hold 1.4 Mbit."""
    key = (domain, anchor_max, rank, reps)
    setup = _SETUPS.get(key)
    if setup is None:
        setup = _Setup(domain, anchor_max, rank, reps)
        # summed over a copy, as another thread's call may clear them
        if setup.cells + sum(k.cells for k in tuple(_SETUPS.values())) > _MAX_CELLS:
            _SETUPS.clear()
        _SETUPS[key] = setup
    return setup


# A node's closure: its value under a context.
_Closure = Callable[[EvalContext], Any]


class Interned:
    """Formulas hash-consed into one table: structurally equal subformulas
    become one object (Filliatre & Conchon, "Type-safe modular
    hash-consing", ML Workshop 2006). Each node carries its static facts,
    folded from its children's (logic.static_facts), and its closure, built
    from its children's closures; both are stored on the node, outside its
    fields. Adding a formula takes one table lookup per tree node and one
    construction, with its facts and closure, per node the table lacks. Any
    EvalContext runs an interned formula's closure (see
    EvalContext.read); the table is needed only to add to it."""

    def __init__(self) -> None:
        self._nodes: dict[object, Node] = {}

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
            else:  # a fresh leaf, so no closure lands on the caller's object
                node = _with_children(formula, kids) if kids else replace(formula)
            object.__setattr__(node, "_closure", _compile(node))
            self._nodes[key] = node
        return node


def _compile(node: Node) -> _Closure:
    """The node's closure. A closed formula node's closure computes it
    once per context, keyed by the node's identity and, when it holds
    a quantifier, also by the context's set-up key, which fixes the
    probe bounds, and by the variables bound around it, which decide
    whether it rebinds one."""
    c = [k._closure for k in children(node)]
    if isinstance(node, Var):
        name = node.name
        return lambda ctx: ctx.var(name)
    if isinstance(node, Const):
        name, copy = node.name, node.copy
        return lambda ctx: ctx.constant(name, copy)
    if isinstance(node, OrdinalLiteral):
        value = node.value
        return lambda ctx: ctx.literal(value)
    if isinstance(node, Truth):
        value = node.value
        return lambda ctx: value
    fn: _Closure
    if isinstance(node, Apply):
        name, copy = node.name, node.copy
        if name == MEMBERSHIP:
            a, b = c
            fn = lambda ctx: ctx.less(a(ctx), b(ctx))
        elif len(c) == 1:
            (a,) = c
            fn = lambda ctx: ctx.unary(ctx.state(copy), name, a(ctx))
        else:
            fn = lambda ctx: ctx.nary(ctx.state(copy), name, [a(ctx) for a in c])
    elif isinstance(node, Equal):
        a, b = c
        fn = lambda ctx: ctx.equal(a(ctx), b(ctx))
    elif isinstance(node, Not):
        (a,) = c
        fn = lambda ctx: ctx.negate(a(ctx))
    elif isinstance(node, (And, Or, Implies, Iff)):
        kind, (a, b) = type(node), c

        def fn(ctx: EvalContext) -> Any:
            left = a(ctx)
            settled = ctx.settle(kind, left)
            return ctx.combine(kind, left, b(ctx)) if settled is None else settled

    else:
        (a,), body_rank = c, quantifier_rank(node.body)
        fn = lambda ctx: ctx.quantify(node, body_rank, a, ctx)
    free, rank, _ = static_facts(node)
    if free:
        return fn
    nid = id(node)

    def memo(ctx: EvalContext) -> Any:
        key = (nid, ctx.key, tuple(ctx.bound)) if rank else nid
        value = ctx.memo.get(key)
        if value is None:
            value = ctx.memo[key] = fn(ctx)
        return value

    return memo


@_depth_checked
def sat(formula: Formula, state: State, domain: EvalDomain) -> bool:
    """Truth of a sentence in one state.

    Copy-0 references are allowed and read the same state, so transition
    witnesses can be tested directly; copy-1 references are rejected.
    """
    free, rank, literals = static_facts(formula)
    if free:
        raise NotClosed(f"free variables {sorted(free)} in sentence")
    ctx = EvalContext.single(state, domain)
    return ctx.read(bool, formula, rank, ctx._anchor(literals))


@_depth_checked
def sat2(
    formula: Formula, states: tuple[State, State], domain: EvalDomain
) -> bool:
    """Truth of a binary sentence over a pair of states (copy 0, copy 1)."""
    free, rank, literals = static_facts(formula)
    if free:
        raise NotClosed(f"free variables {sorted(free)} in sentence")
    s1, s2 = states
    ctx = EvalContext({0: s1, 1: s2}, domain)
    return ctx.read(bool, formula, rank, ctx._anchor(literals))


@_depth_checked
def defined_set(
    formula: Formula, state: State, domain: EvalDomain, var: str | None = None
) -> OrdinalSet:
    """The subset of the universe defined by a one-free-variable formula.

    In Omega mode the candidate segment [0, B] is evaluated exactly and
    the tail beyond B is decided by three spread representatives, which
    must agree; if they do not, the bound was not actually stable and
    ThresholdViolation is raised rather than returning a guess.
    """
    fv, rank, literals = static_facts(formula)
    if var is None:
        if len(fv) != 1:
            raise NotClosed(f"need exactly one free variable, got {sorted(fv)}")
        var = next(iter(fv))
    elif fv - {var}:
        raise NotClosed(f"extra free variables {sorted(fv - {var})}")
    ctx = EvalContext.single(state, domain)
    return ctx.read(OrdinalSet, formula, rank, ctx._anchor(literals), (var,))


@_depth_checked
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
    fv, rank, literals = static_facts(formula)
    if variables is None:
        variables = tuple(sorted(fv))
    if not fv <= set(variables):
        raise NotClosed(
            f"variable list {variables} misses free variables {sorted(fv - set(variables))}"
        )
    if not variables:
        raise NotClosed("defined_relation needs at least one variable")
    ctx = EvalContext.single(state, domain)
    return ctx.read(frozenset, formula, rank, ctx._anchor(literals), tuple(variables))
