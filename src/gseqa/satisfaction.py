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
  are false in every finite surrogate.

Evaluation is table-driven: each open subformula becomes a boolean numpy
array with one axis per free variable, and quantifiers reduce their axis
under a per-cell bound mask. That keeps the cost of the tight loops in C,
which matters once the run engine starts asking for thousands of defined
sets. Closed terms and closed subformulas are plain Python ints and
bools, with no array around them. Every value an evaluator meets lies
below its radix, so a unary atom indexes a boolean mask over [0, radix)
that it builds from the symbol's set, and an n-ary atom looks its
mixed-radix codes up in the symbol's sorted codes.

Every entry evaluates through an EvalContext: one view per state, the top
of the states' support, and one evaluator and candidate array per probe
set-up, each worked out once. Each node kind's semantics is written once,
as a method of the one evaluator class, and two dispatchers reach it:

* A raw formula is analysed on each call and interpreted node by node;
  this is what sat, sat2, defined_set and defined_relation do, because a
  fresh formula is seen once and compiling it would cost more than it
  saves: interning every sentence of the benchmark's differential
  workload walks 112 200 nodes, where the interpreter, which skips the
  arms that a settled connective does not need, reaches 51 220, and the
  workload took almost three times as long.
* A machine's transition is compiled once, at admission: its witness
  bodies are interned into one table (Interned), so structurally equal
  subformulas are one object, with static facts and a closure built from
  its children's. A step runs every witness's closures under one context
  for the state, which computes each closed node once, however many
  witnesses share it. Running the interned bodies through the
  interpreter with the same memo made the benchmark's bridge and
  constructions workloads 10-20% slower.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

import numpy as np

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
    FuncApp,
    Iff,
    Implies,
    MEMBERSHIP,
    Node,
    Not,
    Or,
    OrdinalLiteral,
    StaticFacts,
    Term,
    Truth,
    Var,
    children,
    map_formula,
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


class _View:
    """Resolves one copy of the signature against a concrete state."""

    def __init__(self, state: State):
        self.state = state
        self._constants = dict(state.constants)
        self._tuples: dict[str, frozenset[tuple[int, ...]]] = {}
        self._codes: dict[tuple[str, int], np.ndarray] = {}
        self._graphs: dict[str, dict[tuple[int, ...], int]] = {}

    def constant(self, name: str) -> int:
        try:
            return self._constants[name]
        except KeyError:
            return self.state.constant(name)  # raises the state's own error

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

    def tuple_codes(self, name: str, radix: int, arity: int) -> np.ndarray:
        """The sorted mixed-radix codes of the symbol's tuples, built once
        per radix, then radix^arity, which no code of values below radix
        reaches, so that a lookup past the last code stays in bounds."""
        codes = self._codes.get((name, radix))
        if codes is None:
            ts = self.tuples(name, arity)
            codes = sorted(sum(t[i] * radix**i for i in range(arity)) for t in ts)
            codes.append(radix**arity)
            codes = self._codes[name, radix] = np.array(codes, dtype=np.int64)
        return codes

    def graph(self, name: str, arity: int) -> dict[tuple[int, ...], int]:
        if name not in self._graphs:
            g: dict[tuple[int, ...], int] = {}
            for t in self.tuples(name, arity + 1):
                g[t[:-1]] = t[-1]
            self._graphs[name] = g
        return self._graphs[name]


@dataclass(slots=True)
class _Table:
    """A node's value: an array with one axis per free variable, named in
    axes, or, for a closed node, a plain int or bool."""

    array: Any
    axes: tuple[str, ...]


_TRUE = _Table(True, ())


class _Evaluator:
    """The semantics of each node kind over tables for one probe set-up.
    Two dispatchers reach them: eval interprets a raw formula node by
    node, and an interned formula's closures (see Interned._compile) call
    them directly and keep each closed node's table in the context's
    memo. Each dispatcher is the faster one for its traffic; see the
    module docstring."""

    def __init__(self, ctx: "EvalContext", anchor_max: int, quant_upper: int):
        self.views = ctx.views
        self.domain = ctx.domain
        self.memo = ctx.memo
        self.anchor_max = anchor_max
        if self.domain.is_omega:
            self.quant_values = np.arange(quant_upper + 1, dtype=np.int64)
        else:
            self.quant_values = np.arange(self.domain.size, dtype=np.int64)
        # the probe set-up, which with a node's identity keys its memo entry
        self.scope = (anchor_max, len(self.quant_values))
        self.axis_values: dict[str, np.ndarray] = {}
        # the mixed-radix tuple encoding must be collision-free for every
        # value reachable as an argument or stored as a tuple component
        self.radix = int(max(self.quant_values.max(initial=0), anchor_max) + 1)

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

    def _align(self, *tables: _Table) -> tuple[list, tuple[str, ...]]:
        shared: tuple[str, ...] = ()
        for t in tables:
            if t.axes and t.axes != shared:
                if shared:
                    break
                shared = t.axes
        else:
            # the operands share their axes or are closed: nothing to move
            return [t.array for t in tables], shared
        axes: list[str] = []
        for t in tables:
            for a in t.axes:
                if a not in axes:
                    axes.append(a)
        out = []
        for t in tables:
            arr = np.asarray(t.array)
            # expand missing axes, then put present ones in shared order
            order = [a for a in axes if a in t.axes]
            perm = [t.axes.index(a) for a in order]
            if perm:
                arr = np.transpose(arr, perm)
            shape = [len(self.axis_values[a]) if a in t.axes else 1 for a in axes]
            arr = arr.reshape(shape)
            out.append(arr)
        return out, tuple(axes)

    # -- the semantics of terms --------------------------------------------

    def literal(self, value: OrdinalNotation) -> _Table:
        if not value.is_finite:
            raise Unsupported(f"cannot evaluate the infinite literal {value}")
        return _Table(value.to_int(), ())

    def constant(self, name: str, copy: int | None) -> _Table:
        return _Table(self.view(copy).constant(name), ())

    def var(self, name: str) -> _Table:
        try:
            return _Table(self.axis_values[name], (name,))
        except KeyError:
            raise NotClosed(f"free variable {name!r} in a closed context") from None

    def func_app(
        self, name: str, graph: dict[tuple[int, ...], int], args: list[_Table]
    ) -> _Table:
        arrays, axes = self._align(*args)
        if axes:
            stacked = np.broadcast_arrays(*arrays)
            keys = zip(*(a.reshape(-1).tolist() for a in stacked))
        else:
            keys = [tuple(arrays)]
        vals = []
        for key in keys:
            if key not in graph:
                raise Unrepresentable(f"function {name!r} has no graph entry for {key}")
            vals.append(graph[key])
        if not axes:
            return _Table(vals[0], ())
        return _Table(np.array(vals, dtype=np.int64).reshape(stacked[0].shape), axes)

    # -- the semantics of formulas -----------------------------------------

    def equal(self, left: _Table, right: _Table) -> _Table:
        (a, b), axes = self._align(left, right)
        return _Table(a == b, axes)

    def less(self, left: _Table, right: _Table) -> _Table:
        """A membership atom: on the naturals, x in y is x < y."""
        (a, b), axes = self._align(left, right)
        return _Table(a < b, axes)

    def unary(self, view: _View, name: str, arg: _Table) -> _Table:
        s = view.state.relation(name)
        if not arg.axes:
            return _Table(s.member(arg.array), ())
        # membership of every value below radix, which bounds them all
        mask = np.full(self.radix, not s.is_finite)
        mask[list(s.elements)] = s.is_finite
        return _Table(mask[arg.array], arg.axes)

    def nary(self, view: _View, name: str, args: list[_Table]) -> _Table:
        arrays, axes = self._align(*args)
        if not axes:
            return _Table(tuple(arrays) in view.tuples(name, len(arrays)), ())
        code = arrays[0]
        for i in range(1, len(arrays)):
            code = code + arrays[i] * self.radix**i
        codes = view.tuple_codes(name, self.radix, len(arrays))
        return _Table(codes[np.searchsorted(codes, code)] == code, axes)

    def negate(self, body: _Table) -> _Table:
        # not ~: on a Python bool, ~True is -2
        if not body.axes:
            return _Table(not body.array, ())
        return _Table(~body.array, body.axes)

    def settle(self, kind: type, left: _Table) -> _Table | None:
        """left (And, Or, Implies or Iff) right, when the left operand alone
        decides it, else None. Only a closed left operand can; settling on
        it means only the live arm of a guard cascade pays its cost."""
        if left.axes or kind is Iff:
            return None
        if kind is And:
            return None if left.array else left
        if kind is Or:
            return left if left.array else None
        return None if left.array else _TRUE

    def combine(self, kind: type, left: _Table, right: _Table) -> _Table:
        """left (And, Or, Implies or Iff) right, where settle found the
        right operand needed."""
        if not left.axes and kind is not Iff:
            # a closed left operand that did not settle passes the right one on
            return right
        (a, b), axes = self._align(left, right)
        if kind is And:
            return _Table(a & b, axes)
        if kind is Or:
            return _Table(a | b, axes)
        if kind is Implies:
            return _Table(~a | b, axes)
        return _Table(a == b, axes)

    def quantify(
        self,
        f: "Exists | Forall",
        body_rank: int | None,
        body: Callable[[Any], _Table],
        arg: Any,
    ) -> _Table:
        """f's quantifier over the candidates, where body(arg) evaluates
        f's body with f.var bound. A body_rank of None is read off f.body
        when the probe bound needs it."""
        var = f.var
        if var in self.axis_values:
            raise Unsupported(f"rebinding of {var!r} inside its own scope")
        self.axis_values[var] = self.quant_values
        try:
            table = body(arg)
            if var not in table.axes:
                return table
            idx = table.axes.index(var)
            axes = _drop(table.axes, var)
            arr = table.array
            exists = isinstance(f, Exists)
            if self.domain.is_omega:
                if body_rank is None:
                    body_rank = quantifier_rank(f.body)
                allowed = self._bound_mask(table.axes, var, body_rank)
                arr = arr & allowed if exists else arr | ~allowed
            out = arr.any(axis=idx) if exists else arr.all(axis=idx)
            return _Table(out if axes else bool(out), axes)
        finally:
            del self.axis_values[var]

    def _bound_mask(self, axes: tuple[str, ...], var: str, body_rank: int) -> np.ndarray:
        """Per-cell candidate bound: anchors and enclosing values plus the
        margin 2^rank + 2 that leaves room for one far representative."""
        bound = np.int64(self.anchor_max)
        shape = [len(self.axis_values[a]) for a in axes]
        per_cell = np.full(shape, bound, dtype=np.int64)
        for i, a in enumerate(axes):
            if a == var:
                continue
            coord = self.axis_values[a].reshape(
                [-1 if j == i else 1 for j in range(len(axes))]
            )
            per_cell = np.maximum(per_cell, coord)
        margin = _margin(body_rank)
        var_idx = axes.index(var)
        var_coord = self.quant_values.reshape(
            [-1 if j == var_idx else 1 for j in range(len(axes))]
        )
        return var_coord <= per_cell + margin

    # -- the interpreter ---------------------------------------------------

    def eval(self, f: Formula) -> _Table:
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
            return _Table(f.value, ())
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

    def term(self, t: Term) -> _Table:
        if isinstance(t, Var):
            return self.var(t.name)
        if isinstance(t, Const):
            return self.constant(t.name, t.copy)
        if isinstance(t, OrdinalLiteral):
            return self.literal(t.value)
        if isinstance(t, FuncApp):
            graph = self.view(t.copy).graph(t.name, len(t.args))
            return self.func_app(t.name, graph, [self.term(a) for a in t.args])
        raise TypeError(f"not a term: {t!r}")


def _drop(axes: tuple[str, ...], var: str) -> tuple[str, ...]:
    return tuple(a for a in axes if a != var)


def _check_omega_ok(views: Mapping[int | None, State]) -> None:
    for s in views.values():
        if s.kappa.is_finite:
            raise Unsupported(
                "Omega evaluation needs an infinite universe; this state has "
                f"kappa = {s.kappa}"
            )


_NONE: frozenset = frozenset()

# A node's closure: its value under an evaluator.
_Closure = Callable[[_Evaluator], _Table]


def _union(sets: list[frozenset]) -> frozenset:
    """The union of the sets, which is one of them whenever one holds the
    rest, so that a node's facts mostly share its children's sets."""
    out = sets[0]
    for s in sets[1:]:
        if not s <= out:
            out = s if out <= s else out | s
    return out


def _shallow_key(node: Node) -> object:
    """Equal for structurally equal nodes whose children are interned: the
    node's kind, its own fields and its children's identities. A leaf is
    its own key. Either way the key hashes without walking the subtree."""
    if isinstance(node, (Apply, FuncApp)):
        return (type(node), node.name, node.copy, *map(id, node.args))
    if isinstance(node, (Exists, Forall)):
        return (type(node), node.var, id(node.body))
    kids = children(node)
    return (type(node), *map(id, kids)) if kids else node


class Interned:
    """Formulas hash-consed into one table: structurally equal subformulas
    become one object (Filliatre & Conchon, "Type-safe modular
    hash-consing", ML Workshop 2006). Each node keeps, keyed by identity,
    its static facts, combined from its children's, and a closure built
    from its children's closures, so that interning is linear in the size
    of the formula. An EvalContext built with the table evaluates the
    formulas it returned, and only those."""

    def __init__(self) -> None:
        self._nodes: dict[object, Node] = {}
        self.facts: dict[int, StaticFacts] = {}
        self.closures: dict[int, _Closure] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def add(self, formula: Formula) -> Formula:
        """The interned copy of the formula."""
        return map_formula(formula, self._intern)

    def _intern(self, node: Node) -> Node:
        key = _shallow_key(node)
        shared = self._nodes.get(key)
        if shared is None:
            shared = self._nodes[key] = node
            self.facts[id(node)] = self._facts_of(node)
            self.closures[id(node)] = self._compile(node)
        return shared

    def _facts_of(self, node: Node) -> StaticFacts:
        if isinstance(node, Var):
            return frozenset((node.name,)), 0, _NONE
        if isinstance(node, OrdinalLiteral):
            return _NONE, 0, frozenset((node.value,))
        kids = [self.facts[id(k)] for k in children(node)]
        if isinstance(node, (Exists, Forall)):
            free, rank, literals = kids[0]
            return free - {node.var}, rank + 1, literals
        if len(kids) == 1:
            return kids[0]
        if not kids:
            return _NONE, 0, _NONE
        return (
            _union([k[0] for k in kids]),
            max(k[1] for k in kids),
            _union([k[2] for k in kids]),
        )

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
        if isinstance(node, FuncApp):
            name, copy, arity = node.name, node.copy, len(c)
            return lambda ev: ev.func_app(
                name, ev.view(copy).graph(name, arity), [a(ev) for a in c]
            )
        if isinstance(node, Truth):
            table = _Table(node.value, ())
            return lambda ev: table
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

            def fn(ev: _Evaluator) -> _Table:
                left = a(ev)
                settled = ev.settle(kind, left)
                return ev.combine(kind, left, b(ev)) if settled is None else settled

        else:
            (a,), body_rank = c, self.facts[id(node.body)][1]
            fn = lambda ev: ev.quantify(node, body_rank, a, ev)
        free, rank, _ = self.facts[id(node)]
        if free:
            return fn
        nid = id(node)

        def memo(ev: _Evaluator) -> _Table:
            key = (nid, ev.scope, tuple(ev.axis_values)) if rank else nid
            table = ev.memo.get(key)
            if table is None:
                table = ev.memo[key] = fn(ev)
            return table

        return memo


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


class EvalContext:
    """Evaluation over fixed states in one domain: one view per state, the
    top of their support, one evaluator per probe set-up and, over
    interned formulas, every closed node already evaluated. Build one per
    state; it answers every formula asked of that state."""

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
        self.support_max = _support_max(v.state for v in made.values())
        self.interned = interned
        self.memo: dict[object, _Table] = {}
        self._setups: dict[tuple[int, int, int], tuple[_Evaluator, np.ndarray | None]] = {}

    @staticmethod
    def single(
        state: State, domain: EvalDomain, interned: Interned | None = None
    ) -> "EvalContext":
        """A context for one state, read by bare and copy-0 references."""
        return EvalContext({None: state, 0: state}, domain, interned)

    def _facts(self, formula: Formula) -> StaticFacts:
        if self.interned is None:
            return static_facts(formula)
        return self.interned.facts[id(formula)]

    def _setup(
        self, anchor_max: int, rank: int, reps: int
    ) -> tuple[_Evaluator, np.ndarray | None]:
        """The evaluator and the candidates for one anchor maximum, rank
        and number of far representatives, built once per context.

        A surrogate's candidates are its whole universe. At w they are
        [0, B] followed by reps far representatives, each 2^rank + 2
        beyond the one before. A sentence asks for no representatives and
        gets no candidates.
        """
        key = (anchor_max, rank, reps)
        setup = self._setups.get(key)
        if setup is not None:
            return setup
        candidates = None
        quant_upper = 0
        if self.domain.is_omega:
            _check_omega_ok(self.states)
            top = anchor_max
            if reps:
                bound = _bound(anchor_max, rank)
                far = bound + _margin(rank) * np.arange(1, reps + 1, dtype=np.int64)
                candidates = np.concatenate([np.arange(bound + 1, dtype=np.int64), far])
                top = int(candidates[-1])
            quant_upper = top + _slack(rank)
        ev = _Evaluator(self, anchor_max, quant_upper)
        if reps and not self.domain.is_omega:
            candidates = ev.quant_values
        setup = self._setups[key] = (ev, candidates)
        return setup

    def _truth_table(
        self,
        formula: Formula,
        facts: StaticFacts,
        variables: tuple[str, ...] = (),
        reps: int = 0,
    ) -> tuple[np.ndarray | bool, np.ndarray | None]:
        """The formula's truth table and the candidates its axes range over.

        The table has one axis per requested variable, in the order given; a
        variable the formula ignores is broadcast across the candidates.
        Variables come with reps > 0 far representatives (see _setup); with
        no variables the table is a single truth value and the candidates
        are None.
        """
        _, rank, literals = facts
        ev, candidates = self._setup(_anchor_max(literals, self.support_max), rank, reps)
        for x in variables:
            ev.axis_values[x] = candidates
        try:
            if self.interned is None:
                table = ev.eval(formula)
            else:
                table = self.interned.closures[id(formula)](ev)
        finally:
            for x in variables:
                ev.axis_values.pop(x, None)
        arr = table.array
        if table.axes != variables:
            axes = table.axes + tuple(x for x in variables if x not in table.axes)
            arr = np.asarray(arr).reshape(np.shape(arr) + (1,) * (len(axes) - len(table.axes)))
            arr = np.broadcast_to(
                arr.transpose([axes.index(x) for x in variables]),
                (len(candidates),) * len(variables),
            )
        return arr, candidates

    @_depth_checked
    def sentence(self, formula: Formula) -> bool:
        """Truth of a sentence."""
        facts = self._facts(formula)
        if facts[0]:
            raise NotClosed(f"free variables {sorted(facts[0])} in sentence")
        return bool(self._truth_table(formula, facts)[0])

    @_depth_checked
    def defined_set(self, formula: Formula, var: str | None = None) -> OrdinalSet:
        """The set a one-free-variable formula defines; see defined_set."""
        facts = self._facts(formula)
        fv = facts[0]
        if var is None:
            if len(fv) != 1:
                raise NotClosed(f"need exactly one free variable, got {sorted(fv)}")
            var = next(iter(fv))
        elif fv - {var}:
            raise NotClosed(f"extra free variables {sorted(fv - {var})}")
        vals, candidates = self._truth_table(formula, facts, (var,), 3)
        if not self.domain.is_omega:
            return OrdinalSet.finite(candidates[vals].tolist())
        tail = vals[-3:]
        if tail.any() and not tail.all():
            raise ThresholdViolation(
                f"tail representatives at {candidates[-3:].tolist()} disagree for "
                f"{formula!r}; the evaluation bound did not stabilise this formula"
            )
        head = vals[:-3]
        if tail[0]:
            return OrdinalSet.cofinite(candidates[:-3][~head].tolist())
        return OrdinalSet.finite(candidates[:-3][head].tolist())

    @_depth_checked
    def defined_relation(
        self, formula: Formula, variables: tuple[str, ...] | None = None
    ) -> frozenset[tuple[int, ...]]:
        """The finite relation a formula defines; see defined_relation."""
        facts = self._facts(formula)
        fv = facts[0]
        if variables is None:
            variables = tuple(sorted(fv))
        if not fv <= set(variables):
            raise NotClosed(
                f"variable list {variables} misses free variables {sorted(fv - set(variables))}"
            )
        if not variables:
            raise NotClosed("defined_relation needs at least one variable")
        arr, candidates = self._truth_table(formula, facts, tuple(variables), 1)
        if self.domain.is_omega:
            for i, x in enumerate(variables):
                if np.take(arr, -1, axis=i).any():
                    raise Unrepresentable(
                        f"formula defines an infinite relation (true at {x} = {candidates[-1]})"
                    )
            arr = arr[(slice(-1),) * len(variables)]
        return frozenset(map(tuple, candidates[np.argwhere(arr)].tolist()))


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
