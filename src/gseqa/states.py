"""Machine states, typing constraints, and snapshot text.

A state interprets a signature over an initial segment of the ordinals:
constants as naturals below the universe bound, unary relations as finite
or cofinite subsets, and higher-arity relations as finite tuple sets.
Membership itself is never stored; it is the order of the universe.

States are immutable and hashable so the run engine can detect revisits
exactly.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Mapping

from .errors import MissingSymbol, ParseError
from .ordinals import (
    OrdinalNotation,
    OrdinalSet,
    format_ordinal_set,
    parse_ordinal,
    parse_ordinal_set,
)
from .logic import Signature, SymbolDecl

__all__ = [
    "State",
    "Tci",
    "TciVerdict",
    "models_tci",
    "format_state",
    "parse_state",
]


Value = int | OrdinalSet | frozenset


def _kind(value: object) -> type:
    """A value's kind: int for a constant, OrdinalSet for a unary
    relation, frozenset for a tuple set. The exact-type test comes first
    because every step reads it."""
    if type(value) is int:
        return int
    if isinstance(value, OrdinalSet):
        return OrdinalSet
    return int if isinstance(value, numbers.Integral) else frozenset


def _declared_kind(decl: SymbolDecl) -> type:
    """The kind of value a declared symbol holds, as _kind names it: int
    for a constant, OrdinalSet for a unary relation, frozenset for a wider
    one."""
    return int if decl.kind == "Constant" else OrdinalSet if decl.arity == 1 else frozenset


def _value_bound(value: Value) -> int:
    """Least n such that the value lives below n (a set modulo its
    cofinite tail); see State.support_bound."""
    kind = _kind(value)
    if kind is int:
        return value + 1
    if kind is OrdinalSet:
        return value.support_bound()
    return max([max(t, default=-1) + 1 for t in value], default=0)


# each kind's name, in the order of its group in State.items
_KINDS = {int: "constant", OrdinalSet: "unary relation", frozenset: "relation of arity 2 or more"}
_RANK = {kind: i for i, kind in enumerate(_KINDS)}


@dataclass(frozen=True)
class State:
    """One machine configuration.

    kappa is the universe bound (a limit ordinal, or a finite stand-in
    when running against a finite surrogate universe). items gives each
    symbol its one value, and the value's type is its kind: an int for a
    constant, an OrdinalSet for a unary relation, and a frozen set of
    tuples for a wider relation. Constants come first, then unary
    relations, then tuple sets, each group sorted by name, so states
    compare and hash structurally. make sorts them; a step builds them in
    that order. The hash, like the support bound, is
    worked out once, since a run looks each state up several times.
    """

    kappa: OrdinalNotation
    items: tuple[tuple[str, Value], ...] = ()
    _values: dict[str, Value] = field(init=False, repr=False, compare=False)
    _support_bound: int | None = field(default=None, init=False, repr=False, compare=False)
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_values", dict(self.items))

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.kappa, self.items)))
        return self._hash

    @staticmethod
    def make(kappa: OrdinalNotation, values: Mapping[str, object] | None = None) -> "State":
        """The state with these values: ints (or other integrals) for
        constants, OrdinalSets for unary relations, and iterables of
        tuples for the rest."""
        keyed = []
        for name, value in (values or {}).items():
            kind = _kind(value)
            if kind is int:
                value = int(value)
                if value < 0:
                    raise ValueError("constants must hold naturals")
            elif kind is frozenset:
                value = frozenset(tuple(map(int, t)) for t in value)
                if any(x < 0 for t in value for x in t):
                    raise ValueError("relation tuples must hold naturals")
            keyed.append((_RANK[kind], name, value))
        keyed.sort()  # names are distinct, so values are never compared
        return State(kappa, tuple([(name, value) for _, name, value in keyed]))

    def value(self, name: str, kind: type | None = None) -> Value:
        """The symbol's value; with a kind (int, OrdinalSet or frozenset),
        only a value of that kind. Raises MissingSymbol naming the symbol
        otherwise."""
        value = self._values.get(name)
        if value is None or (kind is not None and not isinstance(value, kind)):
            raise MissingSymbol(name, f"no {_KINDS.get(kind, 'symbol')} {name!r} in state")
        return value

    @property
    def by_name(self) -> Mapping[str, Value]:
        """Each symbol's value by name, the map that value reads. It reads
        no kind, so a missing name is a bare KeyError."""
        return self._values

    def constant(self, name: str) -> int:
        return self.value(name, int)

    def relation(self, name: str) -> OrdinalSet:
        return self.value(name, OrdinalSet)

    def tuples(self, name: str) -> frozenset[tuple[int, ...]]:
        return self.value(name, frozenset)

    def with_updates(self, values: Mapping[str, object]) -> "State":
        return State.make(self.kappa, {**self._values, **values})

    def support_bound(self) -> int:
        """Least n such that every stored item lives below n (sets modulo
        their cofinite tail).

        Worked out once per state and kept in a field that takes no part
        in equality, since every public evaluation entry on the state
        reads it.
        """
        if self._support_bound is not None:
            return self._support_bound
        bound = max([0, *map(_value_bound, self._values.values())])
        object.__setattr__(self, "_support_bound", bound)
        return bound

    def __str__(self) -> str:
        return format_state(self)


@dataclass(frozen=True)
class Tci:
    """Typing constraint instance derived from a machine.

    schema "GSeqA" pins nothing beyond the universe; "GSeqAP" additionally
    pins the listed parameter constants to fixed ordinals. Relations are
    never pinned (that would smuggle information into the constraint), a
    condition the validator enforces when it assembles one of these.
    """

    kappa: OrdinalNotation
    schema: str
    params: tuple[tuple[str, OrdinalNotation], ...] = ()

    def __post_init__(self) -> None:
        if self.schema not in ("GSeqA", "GSeqAP"):
            raise ValueError(f"bad schema {self.schema!r}")
        if self.schema == "GSeqA" and self.params:
            raise ValueError("GSeqA constraints cannot pin parameters")
        for name, value in self.params:
            if not isinstance(value, OrdinalNotation):
                raise ValueError(f"{name}: pinned value {value!r} is not an OrdinalNotation")

    def pinned(self) -> dict[str, OrdinalNotation]:
        return dict(self.params)


@dataclass(frozen=True)
class TciVerdict:
    ok: bool
    reasons: tuple[str, ...] = ()


def models_tci(state: State, sigma: Signature, tci: Tci) -> TciVerdict:
    """Does the state satisfy the typing constraint over this signature?

    Checks the universe bound, that every interpreted symbol is declared
    with the kind of its value (a tuple set only for an arity of 2 or more),
    within range and (for tuples) of its arity, and that pinned parameter
    constants hold exactly their pinned value (reported as ParameterMismatch).
    """
    reasons: list[str] = []
    if state.kappa != tci.kappa:
        reasons.append(f"universe: state has {state.kappa}, constraint wants {tci.kappa}")
    finite_kappa = state.kappa.is_finite
    bound = state.kappa.to_int() if finite_kappa else None

    declared = {d.name: d for d in sigma}
    for name, value in state.items:
        d = declared.get(name)
        kind = _kind(value)
        if d is None or _declared_kind(d) is not kind:
            reasons.append(f"BadConstraint: {name!r} is not a declared {_KINDS[kind]}")
            continue
        if kind is frozenset:
            for t in sorted(t for t in value if len(t) != d.arity):
                reasons.append(f"arity: {name} holds {t}, which is not a {d.arity}-tuple")
        if bound is None:
            continue
        if kind is int:
            if value >= bound:
                reasons.append(f"range: constant {name} = {value} not below {state.kappa}")
            continue
        elements = value.elements if kind is OrdinalSet else {x for t in value for x in t}
        if any(x >= bound for x in elements):
            reasons.append(f"range: {name} mentions elements at or above {state.kappa}")

    for name, alpha in tci.pinned().items():
        try:
            actual = state.constant(name)
        except MissingSymbol:
            actual = None
        if not alpha.is_finite:
            # a stored natural never equals an infinite pin, so only a
            # state that omits the constant passes
            if actual is not None:
                reasons.append(f"ParameterMismatch: {name} pinned to {alpha}")
        elif actual is None:
            reasons.append(f"ParameterMismatch: {name} missing, pinned to {alpha}")
        elif actual != alpha.to_int():
            reasons.append(
                f"ParameterMismatch: {name} = {actual}, pinned to {alpha}"
            )
    return TciVerdict(not reasons, tuple(reasons))


# ---------------------------------------------------------------------------
# snapshot serialization


# each kind's snapshot line, in State.items order
_HEADS = {int: "constants", OrdinalSet: "unary", frozenset: "nary"}


def format_state(s: State) -> str:
    """The snapshot text: the header, then one line per kind that the
    state holds, with its items in State.items order."""
    lines: dict[type, list[str]] = {}
    for name, value in s.items:
        kind = _kind(value)
        if kind is int:
            text = str(value)
        elif kind is OrdinalSet:
            text = format_ordinal_set(value)
        else:
            text = "{" + ",".join("(" + ",".join(map(str, t)) + ")" for t in sorted(value)) + "}"
        lines.setdefault(kind, []).append(f"{name}={text}")
    return "\n".join(
        [f"state kappa={s.kappa}"]
        + [f"{_HEADS[kind]}: " + " ".join(items) for kind, items in lines.items()]
    )


def _natural(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"expected a natural number, got {text!r}")
    return int(text)


def _parse_tuple_set(text: str) -> frozenset[tuple[int, ...]]:
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(f"bad tuple set {text!r}")
    body = text[1:-1]
    if not body:
        return frozenset()
    tuples = []
    for chunk in body.replace("),(", ")|(").split("|"):
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ParseError(f"bad tuple {chunk!r}")
        items = chunk[1:-1].split(",") if chunk != "()" else []
        if len(items) == 2 and items[1] == "":
            items.pop()  # the one-tuple form (1,)
        tuples.append(tuple(_natural(x) for x in items))
    # built twice, as State.make does, so it iterates (and errors) in its order
    return frozenset([*frozenset(tuples)])


_READERS = dict(zip(_HEADS.values(), (_natural, parse_ordinal_set, _parse_tuple_set)))


def parse_state(text: str) -> State:
    """Inverse of format_state. Refuses a header without a readable kappa=,
    a second header and a name given twice, under one kind or under two,
    naming the line or item at fault."""
    kappa = None
    groups: dict[str, list[tuple[str, Value]]] = {head: [] for head in _READERS}
    names: set[str] = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.split()[0] == "state":
            if kappa is not None:
                raise ParseError(f"second snapshot header {line!r}")
            rest = line[len("state") :].strip()
            if not rest.startswith("kappa="):
                raise ParseError(f"snapshot header {line!r} has no kappa=")
            try:
                kappa = parse_ordinal(rest[len("kappa=") :])
            except ParseError as exc:
                raise ParseError(f"snapshot header {line!r}: {exc}") from None
            continue
        head, sep, rest = line.partition(":")
        if not sep or head not in _READERS:
            raise ParseError(f"unrecognised snapshot line {line!r}")
        read, group = _READERS[head], groups[head]
        for item in rest.split():
            k, _, val = item.partition("=")
            if not k:
                raise ParseError(f"{head} item {item!r} has no name")
            if k in names:
                raise ParseError(f"{head} item {item!r} repeats the name {k!r}")
            names.add(k)
            try:
                group.append((k, read(val)))
            except ParseError as exc:
                raise ParseError(f"{head} item {item!r}: {exc}") from None
    if kappa is None:
        raise ParseError("snapshot missing the 'state kappa=...' header")
    # State.items order: kind by kind, by name within a kind (names are distinct)
    return State(kappa, tuple([item for group in groups.values() for item in sorted(group)]))
