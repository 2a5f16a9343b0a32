"""Shared helpers for the evaluation test suites.

brute_sat is the independent oracle: a deliberately plain recursive
evaluator over an explicit finite domain, written before the library's
bit-parallel engine and sharing no code path with it.

The random corpus generators produce (formula, state) material in two
flavours: "any" exercises the whole grammar (used where both sides of a
differential are finite), while "guarded" keeps every quantifier bounded
by an anchor term. In the guarded fragment a finite evaluation over
[0, n) for any n past the bound B provably agrees with truth over the
full universe, which is what makes an exact Omega-versus-surrogate
differential meaningful; unguarded order quantification genuinely
separates the two (see the boundary tests) and is exercised separately.
"""

from __future__ import annotations

import random
from typing import Mapping

from gseqa.logic import (
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
    Not,
    Or,
    OrdinalLiteral,
    Signature,
    SymbolDecl,
    Term,
    Truth,
    Var,
)
from gseqa.ordinals import OrdinalSet
from gseqa.states import State
from gseqa import OMEGA

CORPUS_SIGMA = Signature(
    [
        SymbolDecl("h", "Constant"),
        SymbolDecl("t", "Constant"),
        SymbolDecl("R", "Relation", 1),
        SymbolDecl("E", "Relation", 2),
    ]
)


# ---------------------------------------------------------------------------
# oracle


def _brute_term(t: Term, env: dict[str, int], views: Mapping[int | None, State]) -> int:
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, OrdinalLiteral):
        return t.value.to_int()
    if isinstance(t, Const):
        return views[t.copy].constant(t.name)
    raise TypeError(t)


def brute_sat(
    f: Formula,
    views: Mapping[int | None, State],
    n: int,
    env: dict[str, int] | None = None,
) -> bool:
    """Plain recursive truth over the finite domain {0, ..., n-1}."""
    env = env or {}
    if isinstance(f, Truth):
        return f.value
    if isinstance(f, Apply):
        vals = [_brute_term(a, env, views) for a in f.args]
        if f.name == MEMBERSHIP:
            return vals[0] < vals[1]
        st = views[f.copy]
        if len(vals) == 1:
            return st.relation(f.name).member(vals[0])
        return tuple(vals) in st.tuples(f.name)
    if isinstance(f, Equal):
        return _brute_term(f.left, env, views) == _brute_term(f.right, env, views)
    if isinstance(f, Not):
        return not brute_sat(f.body, views, n, env)
    if isinstance(f, And):
        return brute_sat(f.left, views, n, env) and brute_sat(f.right, views, n, env)
    if isinstance(f, Or):
        return brute_sat(f.left, views, n, env) or brute_sat(f.right, views, n, env)
    if isinstance(f, Implies):
        return (not brute_sat(f.left, views, n, env)) or brute_sat(f.right, views, n, env)
    if isinstance(f, Iff):
        return brute_sat(f.left, views, n, env) == brute_sat(f.right, views, n, env)
    if isinstance(f, Exists):
        return any(brute_sat(f.body, views, n, {**env, f.var: a}) for a in range(n))
    if isinstance(f, Forall):
        return all(brute_sat(f.body, views, n, {**env, f.var: a}) for a in range(n))
    raise TypeError(f)


# ---------------------------------------------------------------------------
# random material


def random_state(rng: random.Random, support: int = 12) -> State:
    def rset() -> OrdinalSet:
        elems = {rng.randrange(support) for _ in range(rng.randrange(4))}
        return OrdinalSet.cofinite(elems) if rng.random() < 0.3 else OrdinalSet.finite(elems)

    pairs = {
        (rng.randrange(support), rng.randrange(support)) for _ in range(rng.randrange(3))
    }
    return State.make(
        OMEGA,
        {
            "h": rng.randrange(support),
            "t": rng.randrange(support),
            "In": rset(),
            "Out": rset(),
            "R": rset(),
            "E": pairs,
        },
    )


_VARS = ["x", "y", "z"]


def _anchor_term(rng: random.Random) -> Term:
    if rng.random() < 0.5:
        return Const(rng.choice(["h", "t"]))
    return OrdinalLiteral(rng.randrange(12))


def _some_term(rng: random.Random, scope: list[str]) -> Term:
    roll = rng.random()
    if scope and roll < 0.5:
        return Var(rng.choice(scope))
    return _anchor_term(rng)


def _atom(rng: random.Random, scope: list[str]) -> Formula:
    roll = rng.randrange(5)
    if roll == 0:
        return Apply(rng.choice(["In", "Out", "R"]), (_some_term(rng, scope),), None)
    if roll == 1:
        return Apply("E", (_some_term(rng, scope), _some_term(rng, scope)), None)
    if roll == 2:
        return Apply(MEMBERSHIP, (_some_term(rng, scope), _some_term(rng, scope)), None)
    if roll == 3:
        return Equal(_some_term(rng, scope), _some_term(rng, scope))
    return Truth(rng.random() < 0.5)


def random_formula(
    rng: random.Random,
    rank: int = 3,
    guarded: bool = False,
    scope: list[str] | None = None,
    depth: int = 4,
) -> Formula:
    """A closed random formula of quantifier rank at most `rank`.

    With guarded=True every quantifier is bounded by an anchor term, so
    the formula lies in the fragment where finite evaluation past the
    threshold bound coincides with truth over the whole universe.
    """
    scope = scope if scope is not None else []
    roll = rng.random()
    can_quant = rank > 0 and len(scope) < len(_VARS)
    if depth <= 0 or roll < 0.35:
        return _atom(rng, scope)
    if can_quant and roll < 0.55:
        var = _VARS[len(scope)]
        body = random_formula(rng, rank - 1, guarded, scope + [var], depth - 1)
        if guarded:
            guard = Apply(MEMBERSHIP, (Var(var), _anchor_term(rng)), None)
            if rng.random() < 0.5:
                return Exists(var, And(guard, body))
            return Forall(var, Implies(guard, body))
        return Exists(var, body) if rng.random() < 0.5 else Forall(var, body)
    a = random_formula(rng, rank, guarded, scope, depth - 1)
    if roll < 0.65:
        return Not(a)
    b = random_formula(rng, rank, guarded, scope, depth - 1)
    kind = rng.randrange(4)
    if kind == 0:
        return And(a, b)
    if kind == 1:
        return Or(a, b)
    if kind == 2:
        return Implies(a, b)
    return Iff(a, b)


def stamp_random_copies(f: Formula, rng: random.Random) -> Formula:
    """Assign each non-membership symbol reference a random copy index."""

    def on_term(t: Term) -> Term:
        if isinstance(t, Const):
            return Const(t.name, rng.randrange(2))
        return t

    if isinstance(f, Apply):
        copy = None if f.name == MEMBERSHIP else rng.randrange(2)
        return Apply(f.name, tuple(on_term(a) for a in f.args), copy)
    if isinstance(f, Equal):
        return Equal(on_term(f.left), on_term(f.right))
    if isinstance(f, (Truth,)):
        return f
    if isinstance(f, Not):
        return Not(stamp_random_copies(f.body, rng))
    if isinstance(f, (And, Or, Implies, Iff)):
        return type(f)(
            stamp_random_copies(f.left, rng), stamp_random_copies(f.right, rng)
        )
    if isinstance(f, (Exists, Forall)):
        return type(f)(f.var, stamp_random_copies(f.body, rng))
    raise TypeError(f)


# ---------------------------------------------------------------------------
# mutated text

# What an edit writes: the readers' own characters, whitespace of several
# kinds (a tab, a newline, an em space), decimal digits outside ASCII (an
# Arabic-Indic three), a superscript two (a digit but not a decimal), and
# characters that no reader accepts.
EDIT_CHARS = "xyzhtREIOnwc0123(),{}<>-=~&|.@:_' \t\n ٣²$#%é"


def mutate(text: str, rng: random.Random, edits: int) -> str:
    """The text after `edits` random single-character edits: each deletes,
    inserts or replaces one character, inserting from EDIT_CHARS."""
    for _ in range(edits):
        i = rng.randrange(len(text) + 1)
        kind = rng.randrange(3) if i < len(text) else 1
        keep = text[i + 1 :] if kind != 1 else text[i:]
        text = text[:i] + ("" if kind == 0 else rng.choice(EDIT_CHARS)) + keep
    return text
