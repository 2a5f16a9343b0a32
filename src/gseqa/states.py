"""Machine states, typing constraints, and snapshot text.

A state interprets a signature over an initial segment of the ordinals:
constants as naturals below the universe bound, unary relations as finite
or cofinite subsets, higher-arity relations as finite tuple sets, and
functions through their (finite) graph relation. Membership itself is
never stored; it is the order of the universe.

States are immutable and hashable so the run engine can detect revisits
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import ParseError
from .ordinals import (
    OrdinalNotation,
    OrdinalSet,
    format_ordinal_set,
    parse_ordinal,
    parse_ordinal_set,
)
from .logic import Signature

__all__ = [
    "State",
    "Tci",
    "TciVerdict",
    "models_tci",
    "format_state",
    "parse_state",
]


def _freeze_tuples(tuples: Iterable[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
    out = set()
    for t in tuples:
        tt = tuple(int(x) for x in t)
        if any(x < 0 for x in tt):
            raise ValueError("relation tuples must hold naturals")
        out.add(tt)
    return frozenset(out)


@dataclass(frozen=True)
class State:
    """One machine configuration.

    kappa is the universe bound (a limit ordinal, or a finite stand-in
    when running against a finite surrogate universe). The three maps are
    stored as sorted tuples so states compare and hash structurally.
    """

    kappa: OrdinalNotation
    constants: tuple[tuple[str, int], ...] = ()
    unary: tuple[tuple[str, OrdinalSet], ...] = ()
    nary: tuple[tuple[str, frozenset[tuple[int, ...]]], ...] = ()
    _support_bound: int | None = field(default=None, init=False, repr=False, compare=False)

    @staticmethod
    def make(
        kappa: OrdinalNotation,
        constants: Mapping[str, int] | None = None,
        unary: Mapping[str, OrdinalSet] | None = None,
        nary: Mapping[str, Iterable[tuple[int, ...]]] | None = None,
    ) -> "State":
        consts = tuple(sorted((k, int(v)) for k, v in (constants or {}).items()))
        if any(v < 0 for _, v in consts):
            raise ValueError("constants must hold naturals")
        return State(
            kappa,
            consts,
            tuple(sorted((unary or {}).items())),
            tuple(sorted((k, _freeze_tuples(v)) for k, v in (nary or {}).items())),
        )

    def constant(self, name: str) -> int:
        for k, v in self.constants:
            if k == name:
                return v
        raise KeyError(f"no constant {name!r} in state")

    def relation(self, name: str) -> OrdinalSet:
        for k, v in self.unary:
            if k == name:
                return v
        raise KeyError(f"no unary relation {name!r} in state")

    def tuples(self, name: str) -> frozenset[tuple[int, ...]]:
        for k, v in self.nary:
            if k == name:
                return v
        raise KeyError(f"no relation {name!r} in state")

    def constant_map(self) -> dict[str, int]:
        return dict(self.constants)

    def unary_map(self) -> dict[str, OrdinalSet]:
        return dict(self.unary)

    def nary_map(self) -> dict[str, frozenset[tuple[int, ...]]]:
        return dict(self.nary)

    def with_updates(
        self,
        constants: Mapping[str, int] | None = None,
        unary: Mapping[str, OrdinalSet] | None = None,
        nary: Mapping[str, Iterable[tuple[int, ...]]] | None = None,
    ) -> "State":
        cs = self.constant_map()
        cs.update(constants or {})
        us = self.unary_map()
        us.update(unary or {})
        ns = self.nary_map()
        for k, v in (nary or {}).items():
            ns[k] = _freeze_tuples(v)
        return State.make(self.kappa, cs, us, ns)

    def support_bound(self) -> int:
        """Least n such that every stored item lives below n (sets modulo
        their cofinite tail).

        Worked out once per state and kept in a field that takes no part
        in equality: a run's step reads it for its memo keys and again
        for its evaluation's probe bounds.
        """
        if self._support_bound is not None:
            return self._support_bound
        bound = 0
        for _, val in self.constants:
            bound = max(bound, val + 1)
        for _, s in self.unary:
            bound = max(bound, s.support_bound())
        for _, ts in self.nary:
            for t in ts:
                bound = max(bound, max(t, default=-1) + 1)
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

    def pinned(self) -> dict[str, OrdinalNotation]:
        return dict(self.params)


@dataclass(frozen=True)
class TciVerdict:
    ok: bool
    reasons: tuple[str, ...] = ()


def models_tci(state: State, sigma: Signature, tci: Tci) -> TciVerdict:
    """Does the state satisfy the typing constraint over this signature?

    Checks the universe bound, that every interpreted symbol is declared,
    within range and (for tuples) of its arity, and that pinned parameter
    constants hold exactly their pinned value (reported as ParameterMismatch).
    """
    reasons: list[str] = []
    if state.kappa != tci.kappa:
        reasons.append(f"universe: state has {state.kappa}, constraint wants {tci.kappa}")
    finite_kappa = state.kappa.is_finite
    bound = state.kappa.to_int() if finite_kappa else None

    declared = {d.name: d for d in sigma}
    for name, val in state.constants:
        d = declared.get(name)
        if d is None or d.kind != "Constant":
            reasons.append(f"BadConstraint: {name!r} is not a declared constant")
            continue
        if bound is not None and val >= bound:
            reasons.append(f"range: constant {name} = {val} not below {state.kappa}")
    for name, s in state.unary:
        d = declared.get(name)
        if d is None or d.kind != "Relation" or d.arity != 1:
            reasons.append(f"BadConstraint: {name!r} is not a declared unary relation")
            continue
        if bound is not None and any(e >= bound for e in s.elements):
            reasons.append(f"range: {name} mentions elements at or above {state.kappa}")
    for name, ts in state.nary:
        d = declared.get(name)
        if d is None or d.kind == "Constant":
            reasons.append(f"BadConstraint: {name!r} is not a declared relation")
            continue
        # a function is stored as its graph: arguments, then the value
        width = d.arity + (d.kind == "Function")
        for t in sorted(t for t in ts if len(t) != width):
            reasons.append(f"arity: {name} holds {t}, which is not a {width}-tuple")
        if bound is not None and any(x >= bound for t in ts for x in t):
            reasons.append(f"range: {name} mentions elements at or above {state.kappa}")

    pinned = tci.pinned()
    for name, alpha in pinned.items():
        if not alpha.is_finite:
            # a pinned infinite value can never be checked against a stored
            # natural; treat presence as mismatch unless the state omits it
            if any(k == name for k, _ in state.constants):
                reasons.append(f"ParameterMismatch: {name} pinned to {alpha}")
            continue
        try:
            actual = state.constant(name)
        except KeyError:
            reasons.append(f"ParameterMismatch: {name} missing, pinned to {alpha}")
            continue
        if actual != alpha.to_int():
            reasons.append(
                f"ParameterMismatch: {name} = {actual}, pinned to {alpha}"
            )
    return TciVerdict(not reasons, tuple(reasons))


# ---------------------------------------------------------------------------
# snapshot serialization


def format_state(s: State) -> str:
    lines = [f"state kappa={s.kappa}"]
    if s.constants:
        lines.append("constants: " + " ".join(f"{k}={v}" for k, v in s.constants))
    if s.unary:
        lines.append(
            "unary: " + " ".join(f"{k}={format_ordinal_set(v)}" for k, v in s.unary)
        )
    if s.nary:
        parts = []
        for k, ts in s.nary:
            body = ",".join("(" + ",".join(str(x) for x in t) + ")" for t in sorted(ts))
            parts.append(f"{k}={{{body}}}")
        lines.append("nary: " + " ".join(parts))
    return "\n".join(lines)


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
    return frozenset(tuples)


def parse_state(text: str) -> State:
    """Inverse of format_state."""
    kappa = None
    constants: dict[str, int] = {}
    unary: dict[str, OrdinalSet] = {}
    nary: dict[str, frozenset[tuple[int, ...]]] = {}
    readers = {
        "constants": (constants, _natural),
        "unary": (unary, parse_ordinal_set),
        "nary": (nary, _parse_tuple_set),
    }
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.split()[0] == "state":
            _, _, rest = line.partition("kappa=")
            kappa = parse_ordinal(rest.strip())
            continue
        head, sep, rest = line.partition(":")
        if not sep or head not in readers:
            raise ParseError(f"unrecognised snapshot line {line!r}")
        table, read = readers[head]
        for item in rest.split():
            k, _, val = item.partition("=")
            if not k:
                raise ParseError(f"{head} item {item!r} has no name")
            if k in table:
                raise ParseError(f"{head} item {item!r} repeats the name {k!r}")
            try:
                table[k] = read(val)
            except ParseError as exc:
                raise ParseError(f"{head} item {item!r}: {exc}") from None
    if kappa is None:
        raise ParseError("snapshot missing the 'state kappa=...' header")
    return State.make(kappa, constants, unary, nary)
