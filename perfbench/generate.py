"""Seeded workload inputs, produced as the text the gseqa readers parse.

Tables come out as `.tm` text for `parse_tm`, sentences as formula text
for `parse_formula` and states as snapshot text for `parse_state`, so the
readers sit on the measured set-up path. The same seed gives the same
text.
"""

from __future__ import annotations

import random

from reference import Table, simulate

# Corpus tables: working states per slot, and the band that the summed
# table steps over the 16 singleton inputs must fall in. The band keeps
# the work of one round nearly the same for every seed: with (30, 40) a
# round's time still spread by 12% over five seeds.
TABLE_STATES = (2, 3, 2, 3)
STEP_BAND = (31, 32)
INPUTS = range(16)
CAP = 600


def _random_table(rng: random.Random, working: int) -> Table:
    names = [f"q{i}" for i in range(working + 1)]
    rules = {
        (q, b): (rng.choice(names), rng.randrange(2), rng.choice("LR"))
        for q in names[:-1]
        for b in (0, 1)
    }
    return Table(names[0], names[-1], rules)


def _total_steps(table: Table, tapes) -> int | None:
    total = 0
    for tape in tapes:
        steps, _ = simulate(table, tape, CAP)
        if steps is None:
            return None
        total += steps
    return total


def halting_corpus(seed: int) -> list[Table]:
    """Tables that halt on every singleton input, with banded total work.

    The second table is composed after the first, so its summed steps on
    the first one's outputs must fall in the band too.
    """
    rng = random.Random(seed)
    tables: list[Table] = []
    for working in TABLE_STATES:
        while True:
            t = _random_table(rng, working)
            if not _in_band(_total_steps(t, ({k} for k in INPUTS))):
                continue
            if len(tables) == 1:
                firsts = [simulate(tables[0], {k}, CAP)[1] for k in INPUTS]
                if not _in_band(_total_steps(t, firsts)):
                    continue
            tables.append(t)
            break
    return tables


def _in_band(total: int | None) -> bool:
    return total is not None and STEP_BAND[0] <= total <= STEP_BAND[1]


# Sentences: the guarded fragment of rank at most 3 over two constants, a
# unary and a binary relation, where evaluation past the threshold bound
# agrees with truth over the whole universe.
SUPPORT = 12
_VARS = ("x", "y", "z")


def _sym(name: str, copies: bool, rng: random.Random) -> str:
    return f"{name}@{rng.randrange(2)}" if copies else name


def _anchor(rng: random.Random, copies: bool) -> str:
    if rng.random() < 0.5:
        return _sym(rng.choice("ht"), copies, rng)
    return str(rng.randrange(SUPPORT))


def _term(rng: random.Random, scope: list, copies: bool) -> str:
    if scope and rng.random() < 0.5:
        return rng.choice(scope)
    return _anchor(rng, copies)


def _atom(rng: random.Random, scope: list, copies: bool) -> str:
    roll = rng.randrange(5)
    if roll == 0:
        return f"{_sym(rng.choice(('In', 'Out', 'R')), copies, rng)}({_term(rng, scope, copies)})"
    if roll == 1:
        return f"{_sym('E', copies, rng)}({_term(rng, scope, copies)}, {_term(rng, scope, copies)})"
    if roll == 2:
        return f"{_term(rng, scope, copies)} < {_term(rng, scope, copies)}"
    if roll == 3:
        return f"{_term(rng, scope, copies)} = {_term(rng, scope, copies)}"
    return rng.choice(("true", "false"))


def _formula(rng: random.Random, rank: int, scope: list, depth: int, copies: bool) -> str:
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return _atom(rng, scope, copies)
    if rank > 0 and len(scope) < len(_VARS) and roll < 0.55:
        var = _VARS[len(scope)]
        body = _formula(rng, rank - 1, scope + [var], depth - 1, copies)
        guard = f"{var} < {_anchor(rng, copies)}"
        if rng.random() < 0.5:
            return f"(exists {var}. ({guard} & {body}))"
        return f"(forall {var}. ({guard} -> {body}))"
    a = _formula(rng, rank, scope, depth - 1, copies)
    if roll < 0.65:
        return f"~({a})"
    b = _formula(rng, rank, scope, depth - 1, copies)
    return f"({a} {rng.choice(('&', '|', '->', '<->'))} {b})"


def _state(rng: random.Random) -> str:
    def rset() -> str:
        elems = sorted({rng.randrange(SUPPORT) for _ in range(rng.randrange(4))})
        body = "{" + ",".join(map(str, elems)) + "}"
        return "co" + body if rng.random() < 0.3 else body

    pairs = sorted({(rng.randrange(SUPPORT), rng.randrange(SUPPORT)) for _ in range(rng.randrange(3))})
    return (
        "state kappa=w\n"
        f"constants: h={rng.randrange(SUPPORT)} t={rng.randrange(SUPPORT)}\n"
        f"unary: In={rset()} Out={rset()} R={rset()}\n"
        "nary: E={" + ",".join(f"({a},{b})" for a, b in pairs) + "}\n"
    )


def sentence_pairs(seed: int, count: int) -> list[tuple[str, tuple[str, ...]]]:
    """Sentence/state pairs: the first half single-state, the rest binary.

    A binary sentence references every symbol through an explicit copy
    and comes with two states.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        binary = i >= count // 2
        states = (_state(rng), _state(rng)) if binary else (_state(rng),)
        out.append((_formula(rng, 3, [], 4, binary), states))
    return out
