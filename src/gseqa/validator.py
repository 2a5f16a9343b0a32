"""Machine specifications and their admission checks.

A machine is given by a universe bound, a finite signature, per-symbol
transition witnesses (each a formula over copy-0 symbols that defines the
symbol's next interpretation), and per-symbol default witnesses over the
membership relation alone. This module normalizes and assembles those
witnesses into the transition sentence and the default sentence, checks
the structural and semantic admission conditions, and houses the single
step kernel that the runtime drives.

Admission also records each transition part's footprint: the symbols,
membership aside, that its body reads. A step is fixed by a bounded set
of terms (Gurevich's bounded-exploration postulate), and here that set
is small: evaluating a part reads only its footprint symbols' values and
the evaluation domain. At w the part is probed from its own anchor
maximum, the larger of the top of its footprint values' support and the
body's own literals. The threshold argument (see satisfaction) holds for
the structure cut down to the symbols a formula reads, so that anchor
serves as well as the whole state's, and a symbol that no witness reads
moves no probe. A step therefore keys each part's value by (part,
footprint values) and looks the key up before evaluating, which is the
memo by dependencies of self-adjusting computation (Acar, Blelloch and
Harper, "Adaptive functional programming", POPL 2002). The key fixes
the whole computation, the anchor included, so a hit returns bit for
bit what evaluation would return; and since only values are stored,
every check that can raise, the tail representatives' among them, still
runs once per distinct key. A step is a function of its state alone, so
the memo belongs to whoever steps: a run keeps one for all its steps,
and admission one for its samples; the machine holds none.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from .errors import (
    ArityMismatch,
    D6Violation,
    GseqaError,
    MachineInvalid,
    MissingDistinguished,
    NotBounded,
    NotSimple,
    ThresholdViolation,
    Unrepresentable,
    Unsupported,
    ValidationIssue,
)
from .logic import (
    MEMBERSHIP,
    Apply,
    Const,
    Equal,
    Forall,
    Formula,
    Iff,
    Node,
    Signature,
    SymbolDecl,
    Truth,
    Var,
    children,
    free_vars,
    land,
    ordinal_literals,
    quantifier_rank,
    substitute,
)
from .ordinals import OMEGA, OrdinalNotation, OrdinalSet
from .satisfaction import EvalContext, EvalDomain, Interned, _anchor_max
from .states import _RANK, State, Tci, _declared_kind, _value_bound

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
    the source table of a machine that halts exactly when that table
    halts (compile_tm's outputs and their flips), so that dovetail can
    read its halting set. Neither takes part in equality.
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

    Constants and unary relations use one variable, x; a relation of
    arity n > 1 uses x1, ..., xn.
    """
    n = decl.arity
    return ("x",) if n <= 1 else tuple(f"x{i}" for i in range(1, n + 1))


@dataclass(frozen=True)
class ValidatedMachine:
    """A machine that passed admission, with its assembled transition.

    phi_tau is the conjunction of per-symbol biconditionals over the
    doubled signature; tci the derived interpretation constraint.
    start is the state every run begins from before its input is
    installed: each default's value over the bare order, with In and Out
    empty. It is None when kappa has no evaluation domain.

    _parts are the transition's witness parts in State.items order, their
    bodies interned into one table, so that each body carries its closure
    and a step evaluates each closed subformula the witnesses share once
    per state, and builds its successor's items in the order it reads
    them.
    """

    spec: MachineSpec
    phi_tau: Formula
    tci: Tci
    start: State | None = field(compare=False, repr=False)
    _parts: tuple[_Part, ...] = field(compare=False, repr=False)

    @property
    def kappa(self) -> OrdinalNotation:
        return self.spec.kappa

    @property
    def sigma(self) -> Signature:
        return self.spec.sigma


@dataclass(frozen=True)
class _Part:
    """One normalized witness, ready for the step kernel, with its footprint
    (see the module docstring), empty for a default, which reads membership,
    and literal_top, its body's largest finite literal or 0."""

    decl: SymbolDecl
    variables: tuple[str, ...]
    body: Formula
    footprint: tuple[str, ...] = ()
    literal_top: int = 0

    @property
    def kind(self) -> type:
        """The kind of value the witness defines (see states._declared_kind)."""
        return _declared_kind(self.decl)


# ---------------------------------------------------------------------------
# witness normalization


def _references(body: Formula) -> list[Apply | Const]:
    """The body's symbol references, membership included, each distinct node
    once, in the pre-order of its first occurrence: the first with a defect
    is the one a walk of the tree meets first."""
    seen: dict[int, Node] = {}
    stack: list[Node] = [body]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(reversed(children(node)))
    return [node for node in seen.values() if isinstance(node, (Apply, Const))]


def _check_symbol_usage(refs: list[Apply | Const], sigma: Signature) -> None:
    """Reject references to undeclared symbols and arity abuse."""
    for node in refs:
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


def _fit_variables(
    name: str, formula: Formula, fv: frozenset[str], variables: tuple[str, ...]
) -> Formula:
    """The formula, free in fv, with a single free variable renamed to x."""
    if fv <= set(variables):
        return formula
    if len(variables) == 1 and len(fv) == 1:
        (old,) = fv
        try:
            return substitute(formula, {old: Var(variables[0])})
        except Unsupported:
            raise ArityMismatch(
                f"witness for {name!r} uses variable {old!r}, which cannot be"
                f" renamed to {variables[0]!r} inside a quantifier binding it"
            ) from None
    raise ArityMismatch(
        f"witness for {name!r} uses variables {sorted(fv)}, expected {variables}"
    )


def _normalize_tau(decl: SymbolDecl, formula: Formula, sigma: Signature, table: Interned) -> _Part:
    """The witness interned with copy 0 stamped on its bare references, and
    checked on its distinct nodes. Only a renamed variable interns it again,
    which leaves the first pass's nodes unused in the table."""
    variables = witness_variables(decl)
    body = table.add(formula, 0)
    fitted = _fit_variables(decl.name, formula, free_vars(body), variables)
    if fitted is not formula:
        body = table.add(fitted, 0)
    refs = _references(body)
    for ref in refs:
        if ref.copy not in (None, 0):
            raise NotBounded(decl.name, f"references {ref.name}@{ref.copy}")
    _check_symbol_usage(refs, sigma)
    footprint = {ref.name for ref in refs} - {MEMBERSHIP}
    literal_top = _anchor_max(ordinal_literals(body), 0)
    return _Part(decl, variables, body, tuple(sorted(footprint)), literal_top)


def _normalize_default(decl: SymbolDecl, formula: Formula, sigma: Signature) -> _Part:
    variables = witness_variables(decl)
    formula = _fit_variables(decl.name, formula, free_vars(formula), variables)
    refs = _references(formula)
    for ref in refs:
        if ref.name != MEMBERSHIP:
            raise NotSimple(decl.name, f"mentions {ref.name!r}; only membership is allowed")
        if ref.copy is not None:
            raise NotSimple(decl.name, "copy indices have no place in a default")
    _check_symbol_usage(refs, sigma)
    literal_top = _anchor_max(ordinal_literals(formula), 0)
    return _Part(decl, variables, formula, literal_top=literal_top)


# ---------------------------------------------------------------------------
# sentence assembly


def _head(part: _Part, copy: int | None) -> Formula:
    """The symbol's own atom over the witness variables, at the given copy:
    1 for the next state in phi_tau, None for a single state. At None it
    is also the witness that carries the symbol over unchanged."""
    decl, variables = part.decl, part.variables
    if decl.kind == "Constant":
        return Equal(Var(variables[0]), Const(decl.name, copy))
    return Apply(decl.name, tuple(Var(v) for v in variables), copy)


def _close(variables: tuple[str, ...], body: Formula) -> Formula:
    for var in reversed(variables):
        body = Forall(var, body)
    return body


def _assemble(parts: list[_Part], copy: int | None) -> Formula:
    psis = [_close(p.variables, Iff(_head(p, copy), p.body)) for p in parts]
    return land(*psis) if psis else Truth(True)


# what a witness that outgrew the recursion limit of the formula analyses raises
_TOO_DEEP = "witness is nested too deeply to analyse"


def _issue(exc: GseqaError, kind: str | None = None, state: State | None = None) -> ValidationIssue:
    """The issue that reports an error, under the given kind or its type's
    name, naming its symbol. Its detail leaves out the prefix that
    NotBounded, NotSimple and D6Violation put before it."""
    detail = exc.detail if isinstance(exc, (NotBounded, NotSimple, D6Violation)) else str(exc)
    return ValidationIssue(kind or type(exc).__name__, detail, exc.symbol, state)


def _collect_tau(spec: MachineSpec) -> tuple[list[_Part], list[GseqaError]]:
    """The transition parts in declaration order, their bodies interned
    into one table of their own, and the errors met, each naming its
    symbol."""
    table = Interned()
    parts: list[_Part] = []
    errors: list[GseqaError] = []
    declared = set(spec.sigma.names())
    for name in spec.tauWitnesses:
        if name not in declared or name == MEMBERSHIP:
            errors.append(NotBounded(name, "witness for a symbol outside the signature"))
    for decl in spec.sigma.doubled_symbols():
        formula = spec.tauWitnesses.get(decl.name)
        if formula is None:
            missing = MissingDistinguished if decl.distinguished != "None" else NotBounded
            errors.append(missing(decl.name, "no transition witness"))
            continue
        try:
            parts.append(_normalize_tau(decl, formula, spec.sigma, table))
            continue
        except (NotBounded, ArityMismatch) as exc:
            error: GseqaError = exc
        except RecursionError:
            error = Unsupported(_TOO_DEEP)
        error.symbol = decl.name
        errors.append(error)
    return parts, errors


def _collect_default(spec: MachineSpec) -> tuple[list[_Part], list[GseqaError]]:
    parts: list[_Part] = []
    errors: list[GseqaError] = []
    needed = {d.name for d in spec.sigma.extras()}
    for name in spec.defaultWitnesses:
        if name not in needed:
            errors.append(NotSimple(name, "default given for a symbol whose initial value is fixed"))
    for decl in spec.sigma.extras():
        formula = spec.defaultWitnesses.get(decl.name)
        if formula is None:
            errors.append(NotSimple(decl.name, "no default witness"))
            continue
        try:
            parts.append(_normalize_default(decl, formula, spec.sigma))
            continue
        except (NotSimple, ArityMismatch) as exc:
            error: GseqaError = exc
        except RecursionError:
            error = Unsupported(_TOO_DEEP)
        error.symbol = decl.name
        errors.append(error)
    return parts, errors


def check_bounded(spec: MachineSpec) -> Formula:
    """Assemble the transition sentence, or raise the first defect that
    stops it, naming its symbol.

    The result is the conjunction, over every non-membership symbol, of
    a universally closed biconditional pinning the symbol's copy-1
    interpretation to its copy-0 witness.
    """
    parts, errors = _collect_tau(spec)
    if errors:
        raise errors[0]
    return _assemble(parts, 1)


def check_simple(spec: MachineSpec) -> Formula:
    """Assemble the default sentence, or raise the first defect that stops
    it, naming its symbol."""
    parts, errors = _collect_default(spec)
    if errors:
        raise errors[0]
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


def _part_value(ctx: EvalContext, part: _Part, anchor: int, state: State) -> object:
    """One part's value, read straight off its truth table, whose probes
    start from the given largest anchor; admission put the body's free
    variables among the part's. An evaluation error names the part's
    symbol; D6Violation is raised when a constant's witness pins no
    single value."""
    decl, body, kind = part.decl, part.body, part.kind
    try:
        value = ctx.read(kind, body, quantifier_rank(body), anchor, part.variables)
    except RecursionError:
        error: GseqaError = Unsupported("formula is nested too deeply to evaluate")
    except Unrepresentable as exc:
        error = Unrepresentable(f"value of {decl.name!r}: {exc}")
    except (ThresholdViolation, Unsupported) as exc:
        error = exc
    else:
        if kind is not int or type(value) is int:
            return value
        what = f"a set of size {len(value.elements)}" if value.is_finite else "a cofinite set"
        raise D6Violation(state, decl.name, f"witness defines {what} rather than one value")
    error.symbol = decl.name
    raise error


def _part_values(
    parts: Sequence[_Part], state: State, domain: EvalDomain, memo: dict[tuple, object]
) -> dict[str, object]:
    """The value each witness defines over the state, by symbol name, in
    the parts' order. A part's key, its index and its footprint values
    read from the state's map one name at a time, is looked up in memo. A
    miss is evaluated at once and stored, anchored at w on the part's
    literal_top and its key's values (a surrogate takes no anchor; see
    EvalContext.read), under the state's one context, which is
    built at the first miss and switches set-ups between parts. A state
    that lacks a symbol fails at the first part that reads it."""
    omega = domain.is_omega
    read = state.by_name.__getitem__
    ctx = None
    values: dict[str, object] = {}
    for i, part in enumerate(parts):
        try:
            key = (i, *map(read, part.footprint))
        except KeyError:
            # State.value raises MissingSymbol, which names the symbol
            key = (i, *map(state.value, part.footprint))
        value = memo.get(key)
        if value is None:
            # the top of the support the part reads is its values' largest
            # bound less one; most values are constants, bounded inline
            anchor = 0
            if omega:
                anchor = part.literal_top
                for v in key[1:]:
                    top = v if type(v) is int else _value_bound(v) - 1
                    if top > anchor:
                        anchor = top
            if ctx is None:
                ctx = EvalContext.single(state, domain)
            value = memo[key] = _part_value(ctx, part, anchor, state)
        values[part.decl.name] = value
    return values


def apply_transition(
    vm: ValidatedMachine,
    state: State,
    domain: EvalDomain | None = None,
    memo: dict[tuple, object] | None = None,
) -> State:
    """One successor step: each symbol's next interpretation from its
    witness, the items in the order fixed at admission. memo maps each
    part's key to its value (see _part_values); a run passes one for all
    its steps, and None steps under a fresh one. The memo never changes
    a result, only how many parts are evaluated."""
    if domain is None:
        domain = domain_for(vm.kappa)
        if domain is None:
            raise Unsupported(f"no evaluation domain for kappa = {vm.kappa}")
    values = _part_values(vm._parts, state, domain, {} if memo is None else memo)
    return State(state.kappa, tuple(values.items()))


# ---------------------------------------------------------------------------
# machine admission


def _blank_state(spec: MachineSpec) -> State:
    """Every symbol but membership at its empty value."""
    empty = {int: 0, OrdinalSet: OrdinalSet.finite(), frozenset: frozenset()}
    return State.make(spec.kappa, {
        d.name: empty[_declared_kind(d)] for d in spec.sigma.doubled_symbols()
    })


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

    When kappa is finite or w and every pin lies below it, as admission
    demands before it steps a sample, every state models the machine's
    tci: each symbol holds a value of its declared kind and arity, below
    a finite kappa, and every pin is finite and honoured.
    """
    if spec.kappa.is_finite:
        bound = min(bound, spec.kappa.to_int())
    cofinite_ok = not spec.kappa.is_finite
    for name, val in spec.params.items():
        if not isinstance(val, OrdinalNotation):
            raise ValueError(f"{name}: pinned value {val!r} is not an OrdinalNotation")
    pinned = {name: val.to_int() for name, val in spec.params.items()
              if val.is_finite}
    states = []
    for _ in range(count):
        values: dict[str, object] = {}
        for decl in spec.sigma.doubled_symbols():
            kind = _declared_kind(decl)
            if kind is int:
                values[decl.name] = pinned.get(decl.name, rng.randrange(bound))
            elif kind is OrdinalSet:
                support = frozenset(i for i in range(bound) if rng.random() < 0.3)
                if cofinite_ok and rng.random() < 0.3:
                    values[decl.name] = OrdinalSet.cofinite(support)
                else:
                    values[decl.name] = OrdinalSet.finite(support)
            else:
                rows = {
                    tuple(rng.randrange(bound) for _ in range(decl.arity))
                    for _ in range(rng.randrange(4))
                }
                values[decl.name] = frozenset(rows)
        states.append(State.make(spec.kappa, values))
    return states


# Seeds the random states that check_machine steps, so that admission is
# deterministic.
SAMPLE_SEED = 2026


def check_machine(
    spec: MachineSpec,
    *,
    allow_finite_kappa: bool = False,
    sample_size: int = 64,
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
                detail = "only declared constants can be pinned"
            elif not isinstance(value, OrdinalNotation):
                detail = f"pinned value {value!r} is not an OrdinalNotation"
            elif not value < spec.kappa:
                detail = f"pinned value {value} is not below kappa = {spec.kappa}"
            else:
                continue
            issues.append(ValidationIssue("BadConstraint", detail, symbol=name))

    tau_parts, tau_errors = _collect_tau(spec)
    default_parts, default_errors = _collect_default(spec)
    issues.extend(map(_issue, tau_errors + default_errors))

    if not issues:
        schema = "GSeqAP" if spec.flavor == GSEQAP else "GSeqA"
        tci = Tci(spec.kappa, schema, tuple(sorted(spec.params.items())))
        start = None
        domain = domain_for(spec.kappa)
        if domain is not None:
            issues, start = _semantic_issues(spec, tau_parts, default_parts, domain, sample_size)

    if issues:
        raise MachineInvalid(issues)

    # phi_tau conjoins the parts in declaration order, a step reads them in
    # State.items order: constants, unary relations, tuple sets, each by name
    parts = sorted(tau_parts, key=lambda p: (_RANK[p.kind], p.decl.name))
    return ValidatedMachine(spec, _assemble(tau_parts, 1), tci, start, tuple(parts))


def _moved_pins(
    spec: MachineSpec, values: dict[str, object], what: str, state: State | None = None
) -> list[ValidationIssue]:
    """A BadConstraint naming the symbol for each finite pin whose value
    differs from the one given, which `what` names in the detail."""
    return [
        ValidationIssue(
            "BadConstraint", f"{what} {values[name]} disagrees with pin {pin}", name, state
        )
        for name, pin in spec.params.items()
        if name in values and pin.is_finite and values[name] != pin.to_int()
    ]


def _semantic_issues(
    spec: MachineSpec,
    tau_parts: list[_Part],
    default_parts: list[_Part],
    domain: EvalDomain,
    sample_size: int,
) -> tuple[list[ValidationIssue], State | None]:
    """The defects that evaluation finds, and the start state: the
    defaults evaluated over the bare order, so that the blank state's
    contents never leak in (None when a default fails)."""
    issues: list[ValidationIssue] = []
    blank = _blank_state(spec)
    start = None
    values: dict[str, object] = {}
    try:
        # a default reads membership alone: its footprint is empty, so
        # only its literals anchor it
        values = _part_values(default_parts, blank, domain, {})
    except D6Violation as exc:
        issues.append(_issue(exc, "BadConstraint"))
    except (Unrepresentable, ThresholdViolation, Unsupported) as exc:
        issues.append(_issue(exc))
    else:
        start = blank.with_updates(values)
    issues += _moved_pins(spec, values, "default value")

    # one footprint memo for every sample: a part's value and its errors
    # follow from its key, so a hit was evaluated without error before
    memo: dict[tuple, object] = {}
    rng = random.Random(SAMPLE_SEED)
    for state in sample_states(spec, rng, count=sample_size):
        try:
            successor = _part_values(tau_parts, state, domain, memo)
        except (D6Violation, Unrepresentable, ThresholdViolation, Unsupported) as exc:
            issues.append(_issue(exc, state=state))
            break
        moved = _moved_pins(spec, successor, "next value", state)
        if moved:
            issues += moved
            break
    return issues, start
