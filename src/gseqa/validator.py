"""Machine specifications and their admission checks.

A machine is given by a universe bound, a finite signature, per-symbol
transition witnesses (each a formula over copy-0 symbols that defines the
symbol's next interpretation), and per-symbol default witnesses over the
membership relation alone. This module normalizes and assembles those
witnesses into the transition sentence and the default sentence, checks
the structural and semantic admission conditions, and houses the single
step kernel that the runtime drives.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterator, NoReturn

from .errors import (
    ArityMismatch,
    D6Violation,
    GseqaError,
    MachineInvalid,
    NotBounded,
    NotSimple,
    ThresholdViolation,
    Unrepresentable,
    Unsupported,
    ValidationIssue,
)
from .logic import (
    MEMBERSHIP,
    And,
    Apply,
    Const,
    Equal,
    Forall,
    Formula,
    FuncApp,
    Iff,
    Signature,
    SymbolDecl,
    Truth,
    Var,
    free_vars,
    land,
    nodes,
    substitute,
    symbol_refs,
    with_copy,
)
from .ordinals import OMEGA, OrdinalNotation, OrdinalSet
from .satisfaction import EvalContext, EvalDomain, Interned, sat2
from .states import State, Tci, models_tci

GSEQA = "gseqa"
GSEQAP = "gseqap"


# ---------------------------------------------------------------------------
# machine specifications


@dataclass(frozen=True)
class MachineSpec:
    """A machine as written down: universe bound, signature, witnesses.

    tauWitnesses maps each non-membership symbol to the formula defining
    its next interpretation; defaultWitnesses maps each symbol beyond the
    three distinguished ones to the formula defining its initial value.
    Witness formulas use the canonical variables from witness_variables
    (a single free variable may carry any name and is renamed on
    normalization). params pins constants to fixed ordinals and is only
    admissible under the "gseqap" flavor.

    name and program are bookkeeping: name labels traces, program keeps
    the source table a compiled machine came from so later constructions
    can reuse it. Neither takes part in equality.
    """

    kappa: OrdinalNotation
    sigma: Signature
    flavor: str
    params: dict[str, OrdinalNotation] = field(default_factory=dict)
    tauWitnesses: dict[str, Formula] = field(default_factory=dict)
    defaultWitnesses: dict[str, Formula] = field(default_factory=dict)
    name: str = field(default="machine", compare=False)
    program: object = field(default=None, compare=False, repr=False)


def witness_variables(decl: SymbolDecl) -> tuple[str, ...]:
    """Canonical free variables for a symbol's witness formula.

    Constants use one variable ranging over candidate values; a function
    of arity n uses n+1 (the last one for the result), so the witness
    describes the graph.
    """
    if decl.kind == "Constant":
        return ("x",)
    n = decl.arity + 1 if decl.kind == "Function" else decl.arity
    return ("x",) if n == 1 else tuple(f"x{i}" for i in range(1, n + 1))


@dataclass(frozen=True)
class ValidatedMachine:
    """A machine that passed admission, with its assembled sentences.

    phi_tau is the conjunction of per-symbol biconditionals over the
    doubled signature; phi_default the analogous single-state sentence
    for initial values; tci the derived interpretation constraint.
    start is the state every run begins from before its input is
    installed: each default's value over the bare order, with In and Out
    empty. It is None when kappa has no evaluation domain.
    """

    spec: MachineSpec
    phi_tau: Formula
    phi_default: Formula
    tci: Tci
    _transition: "_Transition" = field(compare=False, repr=False)
    start: State | None = field(compare=False, repr=False)

    @property
    def kappa(self) -> OrdinalNotation:
        return self.spec.kappa

    @property
    def sigma(self) -> Signature:
        return self.spec.sigma

    def reconstruct_witnesses(self) -> dict[str, Formula]:
        """Recover the per-symbol witness bodies from phi_tau.

        Inverts the assembly performed by check_bounded, up to the
        canonical choice of variable names.
        """
        out: dict[str, Formula] = {}
        for psi in _conjuncts(self.phi_tau):
            name, body = _split_psi(psi)
            out[name] = body
        return out


@dataclass(frozen=True)
class _Part:
    """One normalized transition witness, ready for the step kernel."""

    decl: SymbolDecl
    variables: tuple[str, ...]
    body: Formula


@dataclass(frozen=True)
class _Transition:
    """The transition compiled once at admission: the witness parts with
    their bodies interned into one table, so that a step evaluates each
    closed subformula the witnesses share once per state."""

    parts: tuple[_Part, ...]
    interned: Interned


def _compile(parts: list[_Part]) -> _Transition:
    interned = Interned()
    return _Transition(
        tuple(_Part(p.decl, p.variables, interned.add(p.body)) for p in parts),
        interned,
    )


# ---------------------------------------------------------------------------
# witness normalization


def _check_symbol_usage(formula: Formula, sigma: Signature) -> None:
    """Reject references to undeclared symbols and arity abuse."""
    for node in nodes(formula):
        if isinstance(node, Apply):
            if node.name not in sigma:
                raise ArityMismatch(f"undeclared relation {node.name!r}")
            decl = sigma.decl(node.name)
            if decl.kind != "Relation":
                raise ArityMismatch(
                    f"{node.name!r} is a {decl.kind.lower()}, not a relation"
                )
            if decl.arity != len(node.args):
                raise ArityMismatch(
                    f"{node.name!r} has arity {decl.arity}, applied to {len(node.args)}"
                )
        elif isinstance(node, Const):
            if node.name not in sigma or sigma.decl(node.name).kind != "Constant":
                raise ArityMismatch(f"{node.name!r} is not a declared constant")
        elif isinstance(node, FuncApp):
            if node.name not in sigma or sigma.decl(node.name).kind != "Function":
                raise ArityMismatch(f"{node.name!r} is not a declared function")
            if sigma.decl(node.name).arity != len(node.args):
                raise ArityMismatch(f"wrong argument count for {node.name!r}")


def _fit_variables(
    name: str, formula: Formula, variables: tuple[str, ...]
) -> Formula:
    fv = free_vars(formula)
    if fv <= set(variables):
        return formula
    if len(variables) == 1 and len(fv) == 1:
        (old,) = fv
        return substitute(formula, {old: Var(variables[0])})
    raise ArityMismatch(
        f"witness for {name!r} uses variables {sorted(fv)}, expected {variables}"
    )


def _normalize_tau(decl: SymbolDecl, formula: Formula, sigma: Signature) -> _Part:
    variables = witness_variables(decl)
    formula = _fit_variables(decl.name, formula, variables)
    for sym, copy in symbol_refs(formula):
        if copy is not None and copy != 0:
            raise NotBounded(decl.name, f"references {sym}@{copy}")
    _check_symbol_usage(formula, sigma)
    return _Part(decl, variables, with_copy(formula, 0))


def _normalize_default(decl: SymbolDecl, formula: Formula, sigma: Signature) -> _Part:
    variables = witness_variables(decl)
    formula = _fit_variables(decl.name, formula, variables)
    for sym, copy in symbol_refs(formula):
        if sym != MEMBERSHIP:
            raise NotSimple(decl.name, f"mentions {sym!r}; only membership is allowed")
        if copy is not None:
            raise NotSimple(decl.name, "copy indices have no place in a default")
    _check_symbol_usage(formula, sigma)
    return _Part(decl, variables, formula)


# ---------------------------------------------------------------------------
# sentence assembly


def _head(part: _Part, copy: int | None) -> Formula:
    """The symbol's own atom over the witness variables, at the given copy:
    1 for the next state in phi_tau, None for a single state. At None it
    is also the witness that carries the symbol over unchanged."""
    decl, variables = part.decl, part.variables
    if decl.kind == "Constant":
        return Equal(Var(variables[0]), Const(decl.name, copy))
    if decl.kind == "Function":
        args = tuple(Var(v) for v in variables[:-1])
        return Equal(FuncApp(decl.name, args, copy), Var(variables[-1]))
    return Apply(decl.name, tuple(Var(v) for v in variables), copy)


def _close(variables: tuple[str, ...], body: Formula) -> Formula:
    for var in reversed(variables):
        body = Forall(var, body)
    return body


def _assemble(parts: list[_Part], copy: int | None) -> Formula:
    psis = [_close(p.variables, Iff(_head(p, copy), p.body)) for p in parts]
    return land(*psis) if psis else Truth(True)


def _conjuncts(f: Formula) -> Iterator[Formula]:
    if isinstance(f, And):
        yield from _conjuncts(f.left)
        yield from _conjuncts(f.right)
    else:
        yield f


def _split_psi(psi: Formula) -> tuple[str, Formula]:
    while isinstance(psi, Forall):
        psi = psi.body
    if not isinstance(psi, Iff):
        raise GseqaError("conjunct is not a witness biconditional")
    head = psi.left
    if isinstance(head, Apply):
        return head.name, psi.right
    if isinstance(head, Equal) and isinstance(head.right, Const):
        return head.right.name, psi.right
    if isinstance(head, Equal) and isinstance(head.left, FuncApp):
        return head.left.name, psi.right
    raise GseqaError("unrecognized witness head shape")


def _too_deep(name: str) -> ValidationIssue:
    """The witness outgrew the recursion limit of the formula analyses."""
    return ValidationIssue(
        "Unsupported", "witness is nested too deeply to analyse", symbol=name
    )


def _issue(exc: NotBounded | NotSimple | ArityMismatch, name: str) -> ValidationIssue:
    """The issue for a witness that failed normalisation. It keeps only the
    detail, so that raising it again does not repeat the prefix."""
    detail = exc.detail if isinstance(exc, (NotBounded, NotSimple)) else str(exc)
    return ValidationIssue(type(exc).__name__, detail, symbol=name)


_ISSUE_TYPES = {
    "ArityMismatch": ArityMismatch,
    "NotBounded": NotBounded,
    "NotSimple": NotSimple,
    "Unsupported": Unsupported,
}


def _raise_first(issues: list[ValidationIssue], fallback: type[GseqaError]) -> NoReturn:
    """Raise the first issue under its own type; a kind with no type of its
    own (MissingDistinguished) is raised as the fallback."""
    first = issues[0]
    cls = _ISSUE_TYPES.get(first.kind, fallback)
    if cls in (NotBounded, NotSimple):
        raise cls(first.symbol or "?", first.detail)
    raise cls(str(first))


def _collect_tau(spec: MachineSpec) -> tuple[list[_Part], list[ValidationIssue]]:
    parts: list[_Part] = []
    issues: list[ValidationIssue] = []
    declared = set(spec.sigma.names())
    for name in spec.tauWitnesses:
        if name not in declared or name == MEMBERSHIP:
            issues.append(
                ValidationIssue(
                    "NotBounded", "witness for a symbol outside the signature",
                    symbol=name,
                )
            )
    for decl in spec.sigma.doubled_symbols():
        formula = spec.tauWitnesses.get(decl.name)
        if formula is None:
            kind = (
                "MissingDistinguished" if decl.distinguished != "None" else "NotBounded"
            )
            issues.append(
                ValidationIssue(kind, "no transition witness", symbol=decl.name)
            )
            continue
        try:
            parts.append(_normalize_tau(decl, formula, spec.sigma))
        except (NotBounded, ArityMismatch) as exc:
            issues.append(_issue(exc, decl.name))
        except RecursionError:
            issues.append(_too_deep(decl.name))
    return parts, issues


def _collect_default(spec: MachineSpec) -> tuple[list[_Part], list[ValidationIssue]]:
    parts: list[_Part] = []
    issues: list[ValidationIssue] = []
    needed = {d.name for d in spec.sigma.extras()}
    for name in spec.defaultWitnesses:
        if name not in needed:
            issues.append(
                ValidationIssue(
                    "NotSimple",
                    "default given for a symbol whose initial value is fixed",
                    symbol=name,
                )
            )
    for decl in spec.sigma.extras():
        formula = spec.defaultWitnesses.get(decl.name)
        if formula is None:
            issues.append(
                ValidationIssue("NotSimple", "no default witness", symbol=decl.name)
            )
            continue
        try:
            parts.append(_normalize_default(decl, formula, spec.sigma))
        except (NotSimple, ArityMismatch) as exc:
            issues.append(_issue(exc, decl.name))
        except RecursionError:
            issues.append(_too_deep(decl.name))
    return parts, issues


def check_bounded(spec: MachineSpec) -> Formula:
    """Assemble the transition sentence, or raise why it cannot be built.

    The result is the conjunction, over every non-membership symbol, of
    a universally closed biconditional pinning the symbol's copy-1
    interpretation to its copy-0 witness.
    """
    parts, issues = _collect_tau(spec)
    if issues:
        _raise_first(issues, NotBounded)
    return _assemble(parts, 1)


def check_simple(spec: MachineSpec) -> Formula:
    """Assemble the default sentence, or raise why it cannot be built."""
    parts, issues = _collect_default(spec)
    if issues:
        _raise_first(issues, NotSimple)
    return _assemble(parts, None)


# ---------------------------------------------------------------------------
# the step kernel


def domain_for(kappa: OrdinalNotation) -> EvalDomain | None:
    """The evaluation domain matching a universe bound, if one exists.

    Finite bounds get the matching surrogate; w gets the genuine
    threshold evaluator. Larger bounds have no desk-scale evaluation, so
    machines over them can be checked structurally but not run.
    """
    if kappa.is_finite:
        return EvalDomain.surrogate(kappa.to_int())
    if kappa == OMEGA:
        return EvalDomain.omega()
    return None


def _singleton(s: OrdinalSet) -> int | None:
    if s.kind == "finite" and len(s.elements) == 1:
        return next(iter(s.elements))
    return None


def _evaluate_parts(
    parts: tuple[_Part, ...] | list[_Part],
    state: State,
    domain: EvalDomain,
    interned: Interned | None = None,
) -> tuple[dict[str, int], dict[str, OrdinalSet], dict[str, frozenset[tuple[int, ...]]]]:
    """The value each witness defines over the state, split by symbol kind.

    interned is the table the part bodies come from, if they were
    compiled. Raises D6Violation when a constant's witness fails to pin
    exactly one value or a function's witness is not a total graph.
    """
    ctx = EvalContext.single(state, domain, interned)
    constants: dict[str, int] = {}
    unary: dict[str, OrdinalSet] = {}
    nary: dict[str, frozenset[tuple[int, ...]]] = {}
    for part in parts:
        name = part.decl.name
        try:
            if part.decl.kind == "Constant":
                values = ctx.defined_set(part.body, part.variables[0])
                value = _singleton(values)
                if value is None:
                    raise D6Violation(
                        state, name,
                        f"witness defines {_describe(values)} rather than one value",
                    )
                constants[name] = value
            elif part.decl.kind == "Relation" and part.decl.arity == 1:
                unary[name] = ctx.defined_set(part.body, part.variables[0])
            elif part.decl.kind == "Relation":
                nary[name] = ctx.defined_relation(part.body, part.variables)
            else:
                graph = ctx.defined_relation(part.body, part.variables)
                nary[name] = _check_graph(name, graph, part.decl.arity, state, domain)
        except Unrepresentable as exc:
            raise Unrepresentable(f"value of {name!r}: {exc}") from exc
    return constants, unary, nary


def _step(transition: _Transition, state: State, domain: EvalDomain) -> State:
    values = _evaluate_parts(transition.parts, state, domain, transition.interned)
    return State.make(state.kappa, *values)


def _describe(s: OrdinalSet) -> str:
    if s.kind == "cofinite":
        return "a cofinite set"
    return f"a set of size {len(s.elements)}"


def _check_graph(
    name: str,
    graph: frozenset[tuple[int, ...]],
    arity: int,
    state: State,
    domain: EvalDomain,
) -> frozenset[tuple[int, ...]]:
    if domain.is_omega:
        raise Unsupported(
            f"function symbol {name!r} cannot have a total graph "
            "inside the finite-support representation at scale w"
        )
    images: dict[tuple[int, ...], int] = {}
    for row in graph:
        key = row[:arity]
        if key in images:
            raise D6Violation(state, name, f"two images for arguments {key}")
        images[key] = row[arity]
    for key in itertools.product(range(domain.size), repeat=arity):
        if key not in images:
            raise D6Violation(state, name, f"no image for arguments {key}")
    return graph


def apply_transition(
    vm: ValidatedMachine,
    state: State,
    domain: EvalDomain | None = None,
    *,
    debug: bool = False,
) -> State:
    """One successor step: each symbol's next interpretation from its witness.

    With debug set, the freshly built state pair is re-checked against
    the assembled transition sentence through the doubled-signature
    evaluator, catching any drift between the two code paths.
    """
    if domain is None:
        domain = domain_for(vm.kappa)
        if domain is None:
            raise Unsupported(f"no evaluation domain for kappa = {vm.kappa}")
    nxt = _step(vm._transition, state, domain)
    if debug and not sat2(vm.phi_tau, (state, nxt), domain):
        raise GseqaError(
            "step kernel disagrees with the assembled transition sentence"
        )
    return nxt


# ---------------------------------------------------------------------------
# machine admission


def _blank_state(spec: MachineSpec) -> State:
    constants = {d.name: 0 for d in spec.sigma if d.kind == "Constant"}
    unary = {
        d.name: OrdinalSet.finite()
        for d in spec.sigma
        if d.kind == "Relation" and d.arity == 1 and d.distinguished != "Membership"
    }
    nary = {
        d.name: frozenset()
        for d in spec.sigma
        if (d.kind == "Relation" and d.arity >= 2 and d.distinguished != "Membership")
        or d.kind == "Function"
    }
    return State.make(spec.kappa, constants, unary, nary)


def sample_states(
    spec: MachineSpec,
    rng: random.Random,
    count: int = 64,
    bound: int = 12,
) -> list[State]:
    """Random states over the machine's signature, respecting pinning.

    Support is kept below the given bound (clamped to a finite universe
    when there is one); at scale w roughly a third of the unary sets come
    out cofinite so the complement-heavy paths get exercised too.
    """
    if spec.kappa.is_finite:
        bound = min(bound, spec.kappa.to_int())
    cofinite_ok = not spec.kappa.is_finite
    pinned = {name: val.to_int() for name, val in spec.params.items()
              if val.is_finite}
    states = []
    for _ in range(count):
        constants: dict[str, int] = {}
        unary: dict[str, OrdinalSet] = {}
        nary: dict[str, frozenset[tuple[int, ...]]] = {}
        for decl in spec.sigma:
            if decl.distinguished == "Membership":
                continue
            if decl.kind == "Constant":
                constants[decl.name] = pinned.get(decl.name, rng.randrange(bound))
            elif decl.kind == "Relation" and decl.arity == 1:
                support = frozenset(i for i in range(bound) if rng.random() < 0.3)
                if cofinite_ok and rng.random() < 0.3:
                    unary[decl.name] = OrdinalSet.cofinite(support)
                else:
                    unary[decl.name] = OrdinalSet.finite(support)
            elif decl.kind == "Relation":
                rows = {
                    tuple(rng.randrange(bound) for _ in range(decl.arity))
                    for _ in range(rng.randrange(4))
                }
                nary[decl.name] = frozenset(rows)
            else:
                if spec.kappa.is_finite:
                    nary[decl.name] = frozenset(
                        key + (rng.randrange(bound),)
                        for key in _product_keys(bound, decl.arity)
                    )
                else:
                    nary[decl.name] = frozenset()
        states.append(State.make(spec.kappa, constants, unary, nary))
    return states


def _product_keys(bound: int, arity: int) -> Iterator[tuple[int, ...]]:
    return itertools.product(range(bound), repeat=arity)


def check_machine(
    spec: MachineSpec,
    *,
    allow_finite_kappa: bool = False,
    sample_size: int = 64,
    seed: int = 2026,
) -> ValidatedMachine:
    """Admit a machine specification or raise MachineInvalid with every defect.

    Structural checks cover the universe bound, the flavor and pinning
    discipline, and witness assembly. Semantic checks evaluate the
    defaults, which fixes the start state and checks that each constant
    gets one value, and run the step kernel over a seeded sample
    of random states, so non-functional witnesses surface here rather
    than mid-run; the runtime repeats the same checks lazily at every
    state it actually visits.
    """
    issues: list[ValidationIssue] = []

    if spec.kappa.is_finite:
        if not allow_finite_kappa:
            issues.append(
                ValidationIssue(
                    "NonLimitKappa",
                    f"kappa = {spec.kappa} is finite; pass allow_finite_kappa "
                    "to accept a finite surrogate universe",
                )
            )
        elif spec.kappa.to_int() == 0:
            issues.append(ValidationIssue("NonLimitKappa", "empty universe"))
    elif not spec.kappa.is_limit:
        issues.append(
            ValidationIssue("NonLimitKappa", f"kappa = {spec.kappa} is a successor")
        )

    if spec.flavor not in (GSEQA, GSEQAP):
        issues.append(ValidationIssue("BadConstraint", f"unknown flavor {spec.flavor!r}"))
    if spec.params:
        if spec.flavor == GSEQA:
            issues.append(
                ValidationIssue(
                    "BadConstraint",
                    "pinned constants amount to hidden input and need the "
                    "parameterized flavor",
                )
            )
        for name, value in spec.params.items():
            if name not in spec.sigma or spec.sigma.decl(name).kind != "Constant":
                issues.append(
                    ValidationIssue(
                        "BadConstraint",
                        "only declared constants can be pinned",
                        symbol=name,
                    )
                )
            elif not value < spec.kappa:
                issues.append(
                    ValidationIssue(
                        "BadConstraint",
                        f"pinned value {value} is not below kappa = {spec.kappa}",
                        symbol=name,
                    )
                )

    tau_parts, tau_issues = _collect_tau(spec)
    default_parts, default_issues = _collect_default(spec)
    issues.extend(tau_issues)
    issues.extend(default_issues)

    if not issues:
        schema = "GSeqAP" if spec.flavor == GSEQAP else "GSeqA"
        tci = Tci(spec.kappa, schema, tuple(sorted(spec.params.items())))
        transition = _compile(tau_parts)
        start = None
        domain = domain_for(spec.kappa)
        if domain is not None:
            issues, start = _semantic_issues(spec, tci, transition, default_parts,
                                             domain, sample_size, seed)

    if issues:
        raise MachineInvalid(issues)

    phi_tau = _assemble(tau_parts, 1)
    phi_default = _assemble(default_parts, None)
    return ValidatedMachine(spec, phi_tau, phi_default, tci, transition, start)


def _semantic_issues(
    spec: MachineSpec,
    tci: Tci,
    transition: _Transition,
    default_parts: list[_Part],
    domain: EvalDomain,
    sample_size: int,
    seed: int,
) -> tuple[list[ValidationIssue], State | None]:
    """The defects that evaluation finds, and the start state: the
    defaults evaluated over the bare order, so that the blank state's
    contents never leak in (None when a default fails)."""
    issues: list[ValidationIssue] = []
    blank = _blank_state(spec)
    start = None
    constants: dict[str, int] = {}
    try:
        values = _evaluate_parts(default_parts, blank, domain)
    except D6Violation as exc:
        issues.append(
            ValidationIssue("BadConstraint", exc.detail, symbol=exc.symbol)
        )
    except (Unrepresentable, ThresholdViolation, Unsupported) as exc:
        issues.append(ValidationIssue("Unrepresentable", str(exc)))
    else:
        start = blank.with_updates(*values)
        constants = values[0]
    for name, value in spec.params.items():
        if name in constants and value.is_finite and constants[name] != value.to_int():
            issues.append(
                ValidationIssue(
                    "BadConstraint",
                    f"default value {constants[name]} disagrees with pin {value}",
                    symbol=name,
                )
            )

    rng = random.Random(seed)
    for state in sample_states(spec, rng, count=sample_size):
        if not models_tci(state, spec.sigma, tci).ok:
            continue
        try:
            _step(transition, state, domain)
        except D6Violation as exc:
            issues.append(
                ValidationIssue(
                    "D6Violation", exc.detail, symbol=exc.symbol, state=state
                )
            )
            break
        except (Unrepresentable, ThresholdViolation, Unsupported) as exc:
            issues.append(ValidationIssue("Unrepresentable", str(exc), state=state))
            break
    return issues, start
