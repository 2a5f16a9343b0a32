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
    Not,
    Or,
    OrdinalLiteral,
    StaticFacts,
    Term,
    Truth,
    Var,
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


def _anchor_max(literals: Iterable[OrdinalNotation], states: Iterable[State]) -> int:
    """The largest anchor: the top of each state's support and each finite
    literal (0 when there is neither)."""
    m = 0
    for s in states:
        m = max(m, s.support_bound() - 1)
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
    return _bound(_anchor_max(literals, (state, *states)), rank)


class _View:
    """Resolves one copy of the signature against a concrete state."""

    def __init__(self, state: State):
        self.state = state
        self._graphs: dict[str, dict[tuple[int, ...], int]] = {}

    def constant(self, name: str) -> int:
        return self.state.constant(name)

    def unary_mask(self, name: str, values: np.ndarray) -> np.ndarray:
        s = self.state.relation(name)
        elems = np.fromiter(s.elements, dtype=np.int64, count=len(s.elements))
        hit = np.isin(values, elems)
        return hit if s.is_finite else ~hit

    def tuple_codes(self, name: str, radix: int, arity: int) -> np.ndarray:
        ts = self.state.tuples(name)
        codes = [sum(t[i] * radix**i for i in range(arity)) for t in ts]
        return np.array(sorted(codes), dtype=np.int64)

    def graph(self, name: str) -> dict[tuple[int, ...], int]:
        if name not in self._graphs:
            g: dict[tuple[int, ...], int] = {}
            for t in self.state.tuples(name):
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
        views: Mapping[int | None, State],
        domain: EvalDomain,
        anchor_max: int,
        quant_upper: int,
    ):
        self.views = {k: _View(s) for k, s in views.items()}
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
            graph = self.view(t.copy).graph(t.name)
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
                allowed = self._bound_mask(body.axes, var, quantifier_rank(f.body))
                if isinstance(f, Exists):
                    return _Table((arr & allowed).any(axis=idx), _drop(body.axes, var))
                return _Table((arr | ~allowed).all(axis=idx), _drop(body.axes, var))
            if isinstance(f, Exists):
                return _Table(arr.any(axis=idx), _drop(body.axes, var))
            return _Table(arr.all(axis=idx), _drop(body.axes, var))
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


def _drop(axes: tuple[str, ...], var: str) -> tuple[str, ...]:
    return tuple(a for a in axes if a != var)


def _check_omega_ok(views: Mapping[int | None, State]) -> None:
    for s in views.values():
        if s.kappa.is_finite:
            raise Unsupported(
                "Omega evaluation needs an infinite universe; this state has "
                f"kappa = {s.kappa}"
            )


def _truth_table(
    formula: Formula,
    facts: StaticFacts,
    views: Mapping[int | None, State],
    domain: EvalDomain,
    variables: tuple[str, ...] = (),
    reps: int = 0,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The formula's truth table and the candidates its axes range over.

    The table has one axis per requested variable, in the order given; a
    variable the formula ignores is broadcast across the candidates. A
    surrogate's candidates are its whole universe. At w they are [0, B]
    followed by reps far representatives, each 2^rank + 2 beyond the one
    before. With no variables the table is a single truth value and the
    candidates are None. facts is static_facts(formula).
    """
    _, rank, literals = facts
    anchor_max = _anchor_max(literals, views.values())
    candidates = None
    if domain.is_omega:
        _check_omega_ok(views)
        top = anchor_max
        if variables:
            bound = _bound(anchor_max, rank)
            far = bound + _margin(rank) * np.arange(1, reps + 1, dtype=np.int64)
            candidates = np.concatenate([np.arange(bound + 1, dtype=np.int64), far])
            top = int(candidates[-1])
        ev = _Evaluator(views, domain, anchor_max, top + _slack(rank))
    else:
        ev = _Evaluator(views, domain, anchor_max, 0)
        if variables:
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


def evaluate_with_views(
    formula: Formula, views: Mapping[int | None, State], domain: EvalDomain
) -> bool:
    """Sentence evaluation with explicit copy-to-state views."""
    facts = static_facts(formula)
    if facts[0]:
        raise NotClosed(f"free variables {sorted(facts[0])} in sentence")
    return bool(_truth_table(formula, facts, views, domain)[0])


def sat(formula: Formula, state: State, domain: EvalDomain) -> bool:
    """Truth of a sentence in one state.

    Copy-0 references are allowed and read the same state, so transition
    witnesses can be tested directly; copy-1 references are rejected.
    """
    return evaluate_with_views(formula, {None: state, 0: state}, domain)


def sat2(
    formula: Formula, states: tuple[State, State], domain: EvalDomain
) -> bool:
    """Truth of a binary sentence over a pair of states (copy 0, copy 1)."""
    s1, s2 = states
    return evaluate_with_views(formula, {0: s1, 1: s2}, domain)


def defined_set(
    formula: Formula, state: State, domain: EvalDomain, var: str | None = None
) -> OrdinalSet:
    """The subset of the universe defined by a one-free-variable formula.

    In Omega mode the candidate segment [0, B] is evaluated exactly and
    the tail beyond B is decided by three spread representatives, which
    must agree; if they do not, the bound was not actually stable and
    ThresholdViolation is raised rather than returning a guess.
    """
    facts = static_facts(formula)
    fv = facts[0]
    if var is None:
        if len(fv) != 1:
            raise NotClosed(f"need exactly one free variable, got {sorted(fv)}")
        var = next(iter(fv))
    elif fv - {var}:
        raise NotClosed(f"extra free variables {sorted(fv - {var})}")
    vals, candidates = _truth_table(
        formula, facts, {None: state, 0: state}, domain, (var,), 3
    )
    if not domain.is_omega:
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
    facts = static_facts(formula)
    fv = facts[0]
    if variables is None:
        variables = tuple(sorted(fv))
    if not fv <= set(variables):
        raise NotClosed(
            f"variable list {variables} misses free variables {sorted(fv - set(variables))}"
        )
    if not variables:
        raise NotClosed("defined_relation needs at least one variable")
    arr, candidates = _truth_table(
        formula, facts, {None: state, 0: state}, domain, tuple(variables), 1
    )
    if domain.is_omega:
        for i, x in enumerate(variables):
            if np.take(arr, -1, axis=i).any():
                raise Unrepresentable(
                    f"formula defines an infinite relation (true at {x} = {candidates[-1]})"
                )
        arr = arr[(slice(-1),) * len(variables)]
    return frozenset(map(tuple, candidates[np.argwhere(arr)].tolist()))
