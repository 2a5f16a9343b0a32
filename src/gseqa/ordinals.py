"""Ordinal notations below w^w and finite-or-cofinite subsets of a universe.

Notations are Cantor normal forms with natural exponents and coefficients,
so the representable segment is exactly [0, w^w). That is enough for every
machine handled at desk scale: universe bounds, run stamps, and lift targets
all stay far below w^w, and succ, add and next_limit never leave it.

The ASCII syntax is `0`, `7`, `w`, `w*2+3`, `w^2`, `w^3*4+w+1`: terms in
strictly decreasing exponent order joined by `+`. Subsets of the universe
are written `{1,3,5}` or, for complements, `co{0,2}`.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ParseError, Unsupported

__all__ = [
    "OrdinalNotation",
    "OrdinalSet",
    "ZERO",
    "ONE",
    "OMEGA",
    "ord_compare",
    "next_limit",
    "godel_pair",
    "godel_unpair",
    "parse_ordinal",
    "parse_ordinal_set",
    "format_ordinal_set",
]


@functools.total_ordering
@dataclass(frozen=True)
class OrdinalNotation:
    """A Cantor normal form sum(w^e_i * c_i) with e_0 > e_1 > ... >= 0.

    terms holds (exponent, coefficient) pairs in strictly decreasing
    exponent order with every coefficient positive; the empty tuple is 0.
    """

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        last_exp = None
        for exp, coeff in self.terms:
            if exp < 0 or coeff < 1:
                raise ValueError(f"bad CNF term (w^{exp})*{coeff}")
            if last_exp is not None and exp >= last_exp:
                raise ValueError("CNF exponents must strictly decrease")
            last_exp = exp

    @staticmethod
    def from_int(n: int) -> "OrdinalNotation":
        if n < 0:
            raise ValueError("ordinals are non-negative")
        return OrdinalNotation(((0, n),) if n else ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return not self.terms or self.terms[0][0] == 0

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0] == 0

    @property
    def is_limit(self) -> bool:
        """True for limit ordinals; 0 is neither limit nor successor here."""
        return bool(self.terms) and self.terms[-1][0] > 0

    def to_int(self) -> int:
        if not self.is_finite:
            raise Unsupported(f"{self} is not a finite ordinal")
        return self.terms[0][1] if self.terms else 0

    def succ(self) -> "OrdinalNotation":
        return self.add(ONE)

    def add(self, other: "OrdinalNotation") -> "OrdinalNotation":
        """Ordinal addition of normal forms (left-absorbing as usual)."""
        if other.is_zero:
            return self
        lead_exp, lead_coeff = other.terms[0]
        kept = [t for t in self.terms if t[0] > lead_exp]
        if self.terms and any(t[0] == lead_exp for t in self.terms):
            merged = next(c for e, c in self.terms if e == lead_exp) + lead_coeff
            kept.append((lead_exp, merged))
        else:
            kept.append((lead_exp, lead_coeff))
        kept.extend(other.terms[1:])
        return OrdinalNotation(tuple(kept))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrdinalNotation):
            return NotImplemented
        return self.terms == other.terms

    def __lt__(self, other: "OrdinalNotation") -> bool:
        return ord_compare(self, other) < 0

    def __hash__(self) -> int:
        return hash(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, coeff in self.terms:
            if exp == 0:
                parts.append(str(coeff))
            else:
                base = "w" if exp == 1 else f"w^{exp}"
                parts.append(base if coeff == 1 else f"{base}*{coeff}")
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"OrdinalNotation({self})"


ZERO = OrdinalNotation()
ONE = OrdinalNotation.from_int(1)
OMEGA = OrdinalNotation(((1, 1),))


def ord_compare(a: OrdinalNotation, b: OrdinalNotation) -> int:
    """Three-way comparison: -1, 0, or 1 as a <, =, > b."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        if ea != eb:
            return 1 if ea > eb else -1
        if ca != cb:
            return 1 if ca > cb else -1
    if len(a.terms) != len(b.terms):
        return 1 if len(a.terms) > len(b.terms) else -1
    return 0


def next_limit(a: OrdinalNotation) -> OrdinalNotation:
    """The least limit ordinal strictly above a.

    Strips any finite tail and adds w: next_limit(0) = w, next_limit(5) = w,
    next_limit(w) = w*2, next_limit(w^2+3) = w^2+w.
    """
    stripped = OrdinalNotation(tuple(t for t in a.terms if t[0] > 0))
    return stripped.add(OMEGA)


def _as_int(x: "OrdinalNotation | int", what: str) -> int:
    if isinstance(x, OrdinalNotation):
        if not x.is_finite:
            raise Unsupported(f"{what} is only defined for finite ordinals, got {x}")
        return x.to_int()
    n = int(x)
    if n < 0:
        raise ValueError(f"{what} needs a natural number, got {n}")
    return n


def godel_pair(a: "OrdinalNotation | int", b: "OrdinalNotation | int") -> int:
    """Position of (a, b) in the max-then-lexicographic pair enumeration.

    Pairs are ordered by max(a, b) first, then lexicographically; this is
    the standard pairing on ordinals, restricted here to finite inputs
    (infinite arguments raise Unsupported).
    """
    x = _as_int(a, "godel_pair")
    y = _as_int(b, "godel_pair")
    if x < y:
        return y * y + x
    return x * x + x + y


def godel_unpair(n: "OrdinalNotation | int") -> tuple[int, int]:
    """Inverse of godel_pair on naturals."""
    m = _as_int(n, "godel_unpair")
    root = math.isqrt(m)
    rest = m - root * root
    if rest < root:
        return rest, root
    return root, rest - root


@dataclass(frozen=True)
class OrdinalSet:
    """A finite or cofinite subset of the current universe.

    kind is "finite" or "cofinite"; elements is the finite support
    (the members for a finite set, the exceptions for a cofinite one).
    Complement is taken relative to whatever universe bound the caller
    is working under, which the representation never has to mention.
    """

    kind: str
    elements: frozenset[int]

    def __post_init__(self) -> None:
        if self.kind not in ("finite", "cofinite"):
            raise ValueError(f"bad OrdinalSet kind {self.kind!r}")
        if self.elements and min(self.elements) < 0:
            raise ValueError("OrdinalSet elements must be naturals")

    @staticmethod
    def finite(elements: Iterable[int] = ()) -> "OrdinalSet":
        return OrdinalSet("finite", frozenset(elements))

    @staticmethod
    def cofinite(exceptions: Iterable[int] = ()) -> "OrdinalSet":
        return OrdinalSet("cofinite", frozenset(exceptions))

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def member(self, x: int) -> bool:
        return (x in self.elements) == self.is_finite

    def complement(self) -> "OrdinalSet":
        return OrdinalSet("cofinite" if self.is_finite else "finite", self.elements)

    def union(self, other: "OrdinalSet") -> "OrdinalSet":
        if self.is_finite and other.is_finite:
            return OrdinalSet.finite(self.elements | other.elements)
        if self.is_finite:
            return OrdinalSet.cofinite(other.elements - self.elements)
        if other.is_finite:
            return OrdinalSet.cofinite(self.elements - other.elements)
        return OrdinalSet.cofinite(self.elements & other.elements)

    def intersection(self, other: "OrdinalSet") -> "OrdinalSet":
        return self.complement().union(other.complement()).complement()

    def difference(self, other: "OrdinalSet") -> "OrdinalSet":
        return self.intersection(other.complement())

    def symmetric_difference(self, other: "OrdinalSet") -> "OrdinalSet":
        return self.union(other).difference(self.intersection(other))

    def support_bound(self) -> int:
        """Least n with the set constant on [n, universe); 0 for 0/full."""
        return max(self.elements) + 1 if self.elements else 0

    def members_below(self, bound: int) -> Iterator[int]:
        if self.is_finite:
            yield from sorted(e for e in self.elements if e < bound)
        else:
            yield from (x for x in range(bound) if x not in self.elements)

    def __str__(self) -> str:
        return format_ordinal_set(self)


_TERM_RE = re.compile(
    r"(?:w(?:\^(?P<exp>\d+))?(?:\*(?P<coeff>\d+))?|(?P<lit>\d+))$"
)


def parse_ordinal(text: str) -> OrdinalNotation:
    """Parse the ASCII normal-form syntax; raises ParseError on junk."""
    src = text.strip().replace(" ", "")
    if not src:
        raise ParseError("empty ordinal")
    terms: list[tuple[int, int]] = []
    for chunk in src.split("+"):
        m = _TERM_RE.match(chunk)
        if not m:
            raise ParseError(f"bad ordinal term {chunk!r} in {text!r}")
        if m.group("lit") is not None:
            exp, coeff = 0, int(m.group("lit"))
        else:
            exp = int(m.group("exp")) if m.group("exp") else 1
            coeff = int(m.group("coeff")) if m.group("coeff") else 1
        terms.append((exp, coeff))
    if terms == [(0, 0)]:
        return ZERO
    try:
        return OrdinalNotation(tuple(terms))
    except ValueError as exc:
        raise ParseError(f"{text!r}: {exc}") from None


def parse_ordinal_set(text: str) -> OrdinalSet:
    """Parse `{1,3,5}`, `{}`, or `co{0,2}` into an OrdinalSet."""
    src = text.strip().replace(" ", "")
    cofinite = src.startswith("co")
    if cofinite:
        src = src[2:]
    if not (src.startswith("{") and src.endswith("}")):
        raise ParseError(f"bad set literal {text!r}")
    body = src[1:-1]
    elements: set[int] = set()
    if body:
        for chunk in body.split(","):
            if not chunk.isdecimal():
                raise ParseError(f"bad set element {chunk!r} in {text!r}")
            elements.add(int(chunk))
    return OrdinalSet.cofinite(elements) if cofinite else OrdinalSet.finite(elements)


def format_ordinal_set(s: OrdinalSet) -> str:
    body = "{" + ",".join(str(e) for e in sorted(s.elements)) + "}"
    return body if s.is_finite else "co" + body

