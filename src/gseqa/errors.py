"""Exception types and validation issue records shared across the package."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


class GseqaError(Exception):
    """Base class for every error raised by this package. symbol names the
    symbol the error is about, where one is known."""

    symbol: str | None = None


class ParseError(GseqaError):
    """Malformed formula, ordinal, set, or spec-file text."""


class Unsupported(GseqaError):
    """The operation is only defined on a smaller domain than was given.

    Raised for instance when the pairing function receives an infinite
    ordinal, or when an execution mode cannot represent a value it would
    need to store.
    """


class Unrepresentable(GseqaError):
    """A set or state component left the finite-or-cofinite representation."""


class MissingSymbol(GseqaError, KeyError):
    """A state lacks a symbol that was read from it, or holds it under
    another kind. It is also a KeyError, the error of a failed lookup."""

    def __init__(self, symbol: str, detail: str) -> None:
        super().__init__(detail)
        self.symbol = symbol

    # KeyError would print the message quoted
    __str__ = Exception.__str__


class NotClosed(GseqaError):
    """A formula with free variables reached a context requiring a sentence."""


class ThresholdViolation(GseqaError):
    """Tail representatives past the evaluation bound disagreed.

    This signals that the finite-evaluation bound computed for a formula
    did not actually stabilise its truth value, which would make any
    answer returned for the infinite universe untrustworthy.
    """


class ArityMismatch(GseqaError):
    """A symbol was applied to the wrong number of arguments."""


class NotBounded(GseqaError):
    """A transition witness failed the boundedness requirements."""

    def __init__(self, symbol: str, detail: str = "") -> None:
        super().__init__(f"witness for {symbol!r} is not bounded: {detail}" if detail
                         else f"witness for {symbol!r} is not bounded")
        self.symbol = symbol
        self.detail = detail


class MissingDistinguished(NotBounded):
    """In or Out has no transition witness."""


class NotSimple(GseqaError):
    """A default witness failed the simplicity requirements."""

    def __init__(self, symbol: str, detail: str = "") -> None:
        super().__init__(f"default for {symbol!r} is not simple: {detail}" if detail
                         else f"default for {symbol!r} is not simple")
        self.symbol = symbol
        self.detail = detail


class D6Violation(GseqaError):
    """The transition sentence failed to define a unique next state.

    Carries the state where the failure was observed and the symbol whose
    next value was either undefined or ambiguous there.
    """

    def __init__(self, state: Any, symbol: str, detail: str = "") -> None:
        msg = f"transition does not determine {symbol!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.state = state
        self.symbol = symbol
        self.detail = detail


class KappaMismatch(GseqaError):
    """Two machines with different universe bounds were combined."""


class BadLift(GseqaError):
    """The requested lift target is not admissible for the given machine."""


@dataclass(frozen=True)
class ValidationIssue:
    """One defect found while checking a machine specification.

    kind is a stable tag: the name of the error that reports the defect
    (MissingDistinguished, NotBounded, NotSimple, ArityMismatch,
    D6Violation, Unrepresentable, ThresholdViolation, Unsupported), or
    NonLimitKappa or BadConstraint, which no error raises (a default
    that pins no single value is a BadConstraint); symbol and state are
    filled in when the defect is localised to one.
    """

    kind: str
    detail: str = ""
    symbol: str | None = None
    state: Any = None

    def __str__(self) -> str:
        parts = [self.kind]
        if self.symbol is not None:
            parts.append(f"symbol={self.symbol}")
        if self.detail:
            parts.append(self.detail)
        return ": ".join(parts)


class MachineInvalid(GseqaError):
    """Aggregate failure of machine validation, carrying every issue found."""

    def __init__(self, issues: list[ValidationIssue]):
        super().__init__("; ".join(str(i) for i in issues) or "invalid machine")
        self.issues = list(issues)
