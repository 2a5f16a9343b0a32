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

Evaluation is table-driven: each subformula becomes a boolean numpy array
with one axis per free variable, and quantifiers reduce their axis under
a per-cell bound mask. That keeps the cost of the tight loops in C, which
matters once the run engine starts asking for thousands of defined sets.

Every entry evaluates through an EvalContext: one view per state and the
top of the states' support, worked out once. A raw formula is analysed
on each call and evaluated directly; this is what sat, sat2,
defined_set and defined_relation do. A machine's transition is compiled
once, at admission: its witness bodies are interned into one table
(Interned), so structurally equal subformulas are one object that keeps
its static facts. A step then evaluates every witness under one context
for the state, which computes each closed node once, however many
witnesses share it, and reads quantifier ranks from the facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

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
    "evaluate_with_views",
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
        self._tuples: dict[str, frozenset[tuple[int, ...]]] = {}
        self._graphs: dict[str, dict[tuple[int, ...], int]] = {}

    def constant(self, name: str) -> int:
        return self.state.constant(name)

    def unary_mask(self, name: str, values: np.ndarray) -> np.ndarray:
        s = self.state.relation(name)
        elems = np.fromiter(s.elements, dtype=np.int64, count=len(s.elements))
        hit = np.isin(values, elems)
        return hit if s.is_finite else ~hit

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
        codes = [sum(t[i] * radix**i for i in range(arity)) for t in self.tuples(name, arity)]
        return np.array(sorted(codes), dtype=np.int64)

    def graph(self, name: str, arity: int) -> dict[tuple[int, ...], int]:
        if name not in self._graphs:
            g: dict[tuple[int, ...], int] = {}
            for t in self.tuples(name, arity + 1):
                g[t[:-1]] = t[-1]
            self._graphs[name] = g
        return self._graphs[name]


@dataclass
class _Table:
    array: np.ndarray
    axes: tuple[str, ...]


class _Evaluator:
    def __init__(
        self,
        views: Mapping[int | None, _View],
        domain: EvalDomain,
        anchor_max: int,
        quant_upper: int,
    ):
        self.views = views
        self.domain = domain
        self.anchor_max = anchor_max
        if domain.is_omega:
            self.quant_values = np.arange(quant_upper + 1, dtype=np.int64)
        else:
            self.quant_values = np.arange(domain.size, dtype=np.int64)
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

    def _align(self, *tables: _Table) -> tuple[list[np.ndarray], tuple[str, ...]]:
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

    def _term(self, t: Term) -> _Table:
        if isinstance(t, OrdinalLiteral):
            if not t.value.is_finite:
                raise Unsupported(f"cannot evaluate the infinite literal {t.value}")
            return _Table(np.int64(t.value.to_int()), ())
        if isinstance(t, Const):
            return _Table(np.int64(self.view(t.copy).constant(t.name)), ())
        if isinstance(t, Var):
            if t.name not in self.axis_values:
                raise NotClosed(f"free variable {t.name!r} in a closed context")
            return _Table(self.axis_values[t.name].copy(), (t.name,))
        if isinstance(t, FuncApp):
            graph = self.view(t.copy).graph(t.name, len(t.args))
            args = [self._term(a) for a in t.args]
            arrays, axes = self._align(*args)
            stacked = np.broadcast_arrays(*arrays)
            flat = np.stack([a.reshape(-1) for a in stacked], axis=-1)
            vals = np.empty(flat.shape[0], dtype=np.int64)
            for i, row in enumerate(flat):
                key = tuple(int(x) for x in row)
                if key not in graph:
                    raise Unrepresentable(
                        f"function {t.name!r} has no graph entry for {key}"
                    )
                vals[i] = graph[key]
            shape = stacked[0].shape if stacked else ()
            return _Table(vals.reshape(shape), axes)
        raise TypeError(f"not a term: {t!r}")

    # -- formulas ----------------------------------------------------------

    def eval(self, f: Formula) -> _Table:
        if isinstance(f, Truth):
            return _Table(np.bool_(f.value), ())
        if isinstance(f, Equal):
            (a, b), axes = self._align(self._term(f.left), self._term(f.right))
            return _Table(a == b, axes)
        if isinstance(f, Apply):
            return self._apply(f)
        if isinstance(f, Not):
            t = self.eval(f.body)
            return _Table(~t.array, t.axes)
        if isinstance(f, (And, Or, Implies, Iff)):
            left = self.eval(f.left)
            if not left.axes and not isinstance(f, Iff):
                # Closed left operand: short-circuit so only the live arm of
                # a guard cascade pays its evaluation cost.
                if isinstance(f, And):
                    return self.eval(f.right) if bool(left.array) else left
                if isinstance(f, Or):
                    return left if bool(left.array) else self.eval(f.right)
                if bool(left.array):
                    return self.eval(f.right)
                return _Table(np.bool_(True), ())
            (a, b), axes = self._align(left, self.eval(f.right))
            if isinstance(f, And):
                return _Table(a & b, axes)
            if isinstance(f, Or):
                return _Table(a | b, axes)
            if isinstance(f, Implies):
                return _Table(~a | b, axes)
            return _Table(a == b, axes)
        if isinstance(f, (Exists, Forall)):
            return self._quant(f)
        raise TypeError(f"not a formula: {f!r}")

    def _apply(self, f: Apply) -> _Table:
        if f.name == MEMBERSHIP:
            (a, b), axes = self._align(self._term(f.args[0]), self._term(f.args[1]))
            return _Table(a < b, axes)
        view = self.view(f.copy)
        if len(f.args) == 1:
            t = self._term(f.args[0])
            vals = np.asarray(t.array)
            return _Table(view.unary_mask(f.name, vals), t.axes)
        args = [self._term(a) for a in f.args]
        arrays, axes = self._align(*args)
        arrays = np.broadcast_arrays(*arrays)
        code = np.zeros(arrays[0].shape if arrays else (), dtype=np.int64)
        for i, a in enumerate(arrays):
            code = code + a * (self.radix**i)
        member = np.isin(code, view.tuple_codes(f.name, self.radix, len(f.args)))
        return _Table(member, axes)

    def _quant(self, f: "Exists | Forall") -> _Table:
        var = f.var
        if var in self.axis_values:
            raise Unsupported(f"rebinding of {var!r} inside its own scope")
        self.axis_values[var] = self.quant_values
        try:
            body = self.eval(f.body)
            if var not in body.axes:
                return body
            idx = body.axes.index(var)
            arr = body.array
            if self.domain.is_omega:
                allowed = self._bound_mask(body.axes, var, self._body_rank(f))
                if isinstance(f, Exists):
                    return _Table((arr & allowed).any(axis=idx), _drop(body.axes, var))
                return _Table((arr | ~allowed).all(axis=idx), _drop(body.axes, var))
            if isinstance(f, Exists):
                return _Table(arr.any(axis=idx), _drop(body.axes, var))
            return _Table(arr.all(axis=idx), _drop(body.axes, var))
        finally:
            del self.axis_values[var]

    def _body_rank(self, f: "Exists | Forall") -> int:
        return quantifier_rank(f.body)

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


class _MemoEvaluator(_Evaluator):
    """An evaluator over interned formulas that computes each closed node
    once per context and reads every quantifier's body rank from the
    node's facts.

    A closed quantifier-free node depends on the state alone. A closed
    quantified node also depends on the anchor maximum and the candidate
    count, which fix the probe bounds, and on the variables bound around
    it, which decide whether it rebinds one; those are part of its key.
    """

    def __init__(self, ctx: "EvalContext", anchor_max: int, quant_upper: int):
        super().__init__(ctx.views, ctx.domain, anchor_max, quant_upper)
        self.facts = ctx.interned.facts
        self.memo = ctx.memo
        self.scope = (anchor_max, len(self.quant_values))

    def eval(self, f: Formula) -> _Table:
        free, rank, _ = self.facts[id(f)]
        if free:
            return super().eval(f)
        key = (id(f), self.scope, tuple(self.axis_values)) if rank else id(f)
        table = self.memo.get(key)
        if table is None:
            table = self.memo[key] = super().eval(f)
        return table

    def _body_rank(self, f: "Exists | Forall") -> int:
        return self.facts[id(f.body)][1]


def _drop(axes: tuple[str, ...], var: str) -> tuple[str, ...]:
    return tuple(a for a in axes if a != var)


def _check_omega_ok(views: Mapping[int | None, State]) -> None:
    for s in views.values():
        if s.kappa.is_finite:
            raise Unsupported(
                "Omega evaluation needs an infinite universe; this state has "
                f"kappa = {s.kappa}"
            )


class Interned:
    """Formulas hash-consed into one table: structurally equal subformulas
    become one object, and each formula node keeps its static facts, keyed
    by identity (Filliatre & Conchon, "Type-safe modular hash-consing",
    ML Workshop 2006). An EvalContext built with the table evaluates the
    formulas it returned, and only those."""

    def __init__(self) -> None:
        self._nodes: dict[Node, Node] = {}
        self.facts: dict[int, StaticFacts] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def add(self, formula: Formula) -> Formula:
        """The interned copy of the formula."""
        return map_formula(formula, self._intern)

    def _intern(self, node: Node) -> Node:
        shared = self._nodes.setdefault(node, node)
        if shared is node and not isinstance(node, (Var, Const, FuncApp, OrdinalLiteral)):
            self.facts[id(node)] = static_facts(node)
        return shared


class EvalContext:
    """Evaluation over fixed states in one domain: one view per state, the
    top of their support, and, over interned formulas, every closed node
    already evaluated. Build one per state; it answers every formula asked
    of that state."""

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

    def _truth_table(
        self,
        formula: Formula,
        facts: StaticFacts,
        variables: tuple[str, ...] = (),
        reps: int = 0,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The formula's truth table and the candidates its axes range over.

        The table has one axis per requested variable, in the order given; a
        variable the formula ignores is broadcast across the candidates. A
        surrogate's candidates are its whole universe. At w they are [0, B]
        followed by reps far representatives, each 2^rank + 2 beyond the one
        before. With no variables the table is a single truth value and the
        candidates are None.
        """
        _, rank, literals = facts
        anchor_max = _anchor_max(literals, self.support_max)
        candidates = None
        quant_upper = 0
        if self.domain.is_omega:
            _check_omega_ok(self.states)
            top = anchor_max
            if variables:
                bound = _bound(anchor_max, rank)
                far = bound + _margin(rank) * np.arange(1, reps + 1, dtype=np.int64)
                candidates = np.concatenate([np.arange(bound + 1, dtype=np.int64), far])
                top = int(candidates[-1])
            quant_upper = top + _slack(rank)
        if self.interned is None:
            ev = _Evaluator(self.views, self.domain, anchor_max, quant_upper)
        else:
            ev = _MemoEvaluator(self, anchor_max, quant_upper)
        if variables and not self.domain.is_omega:
            candidates = ev.quant_values
        for x in variables:
            ev.axis_values[x] = candidates
        table = ev.eval(formula)
        arr = table.array
        if table.axes != variables:
            axes = table.axes + tuple(x for x in variables if x not in table.axes)
            arr = np.asarray(arr).reshape(np.shape(arr) + (1,) * (len(axes) - len(table.axes)))
            arr = np.broadcast_to(
                arr.transpose([axes.index(x) for x in variables]),
                (len(candidates),) * len(variables),
            )
        return arr, candidates

    def sentence(self, formula: Formula) -> bool:
        """Truth of a sentence."""
        facts = self._facts(formula)
        if facts[0]:
            raise NotClosed(f"free variables {sorted(facts[0])} in sentence")
        return bool(self._truth_table(formula, facts)[0])

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


def evaluate_with_views(
    formula: Formula, views: Mapping[int | None, State], domain: EvalDomain
) -> bool:
    """Sentence evaluation with explicit copy-to-state views."""
    return EvalContext(views, domain).sentence(formula)


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
