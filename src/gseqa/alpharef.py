"""Reference ordinal-machine simulator and its bridge into the main model.

The machines here run classical tape dynamics over ordinal positions with
an oracle set alongside the tape.  This release fixes the tape bound at w,
where successor steps are all a halting run ever uses, so no run here
reaches a limit stage.  Programs are TmSpec values, the type plain tables
have, with oracle-read and jump rows allowed.

``simulate_alpha_as_gseqap`` translates a program into a pinned-constant
machine whose short terminating runs reproduce the simulator's verdicts.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .errors import Unsupported
from .logic import (
    Formula,
    Signature,
    SymbolDecl,
    cst,
    eq,
    ex,
    fa,
    land,
    limp,
    lit,
    lnot,
    lor,
    lt,
    rel,
    v,
)
from .ordinals import (
    OMEGA,
    OrdinalNotation,
    OrdinalSet,
    godel_pair,
    godel_unpair,
)
from .transforms import (
    OracleRead,
    TmRule,
    TmSpec,
    _halted,
    _succ_sticky,
    _tm_head,
    _tm_state,
    _tm_tape,
)

# Oracle programs and plain tables share one type (TmSpec) and one text
# format, so programs are read by parse_tm under this name.
from .transforms import parse_tm as parse_alpha_program
from .validator import GSEQAP, MachineSpec

__all__ = [
    "Halted",
    "NotHalted",
    "code_sets",
    "decode_sets",
    "parse_alpha_program",
    "run_alpha_machine",
    "simulate_alpha_as_gseqap",
]


# ---------------------------------------------------------------------------
# Input coding


def code_sets(tape: Iterable[int], oracle: Iterable[int]) -> OrdinalSet:
    """Code a tape set and an oracle set into one input set.

    Each tape mark x becomes the pair code of (x, 0) and each oracle
    mark o the pair code of (o, 1), so the two components interleave
    into disjoint ranges and decode without ambiguity.
    """
    marks = {godel_pair(x, 0) for x in tape} | {godel_pair(o, 1) for o in oracle}
    return OrdinalSet.finite(marks)


def decode_sets(coded: OrdinalSet) -> tuple[frozenset[int], frozenset[int]]:
    """Split a coded input back into its tape and oracle components.

    Pair codes whose second component is neither 0 nor 1 carry no
    meaning and are ignored, which keeps decoding total on arbitrary
    finite inputs.
    """
    if not coded.is_finite:
        raise Unsupported("cofinite inputs do not code a pair of sets")
    tape: set[int] = set()
    oracle: set[int] = set()
    for n in coded.elements:
        a, b = godel_unpair(n)
        if b == 0:
            tape.add(a)
        elif b == 1:
            oracle.add(a)
    return frozenset(tape), frozenset(oracle)


# ---------------------------------------------------------------------------
# Outcomes


@dataclass(frozen=True)
class Halted:
    """The run reached the final state with the clock below the bound."""

    output: OrdinalSet
    clock: OrdinalNotation


@dataclass(frozen=True)
class NotHalted:
    """No final state within the step budget."""

    budget: int


def _apply_row(
    spec: TmSpec, state: int, head: int, tape: set[int], oracle: Callable[[int], bool]
) -> tuple[int, int]:
    """Apply the row for the state and the bit under the head.

    Mutates the tape set in place and returns the new (head, state);
    oracle answers whether the oracle holds a position.
    """
    r = spec.rule(state, 1 if head in tape else 0)
    if isinstance(r, TmRule):
        if r.write:
            tape.add(head)
        else:
            tape.discard(head)
        return (head + 1 if r.move == "R" else max(head - 1, 0)), r.target
    if isinstance(r, OracleRead):
        return head, (r.target_in if oracle(head) else r.target_out)
    return spec.params[r.param], r.target


def run_alpha_machine(
    spec: TmSpec, coded_input: OrdinalSet, budget: int = 10_000
) -> Halted | NotHalted:
    """Run a program on a coded (tape, oracle) input.

    Successor steps are classical: read the bit under the head, apply
    the row, tick the clock.  With the tape bound at w a halting run
    finishes at a finite clock, which is exactly the condition for
    reporting Halted; exhausting the budget reports NotHalted.
    """
    tape_in, oracle = decode_sets(coded_input)
    tape = set(tape_in)
    head = 0
    state = 0
    for step in range(budget + 1):
        if state == spec.n - 1:
            return Halted(OrdinalSet.finite(tape), OrdinalNotation.from_int(step))
        head, state = _apply_row(spec, state, head, tape, oracle.__contains__)
    return NotHalted(budget)


# ---------------------------------------------------------------------------
# The bridge construction

_X = v("x")


def _eq_succ(small: str, big: str) -> Formula:
    """big = small + 1, between two constants."""
    y = v("y")
    return land(
        lt(cst(small), cst(big)),
        fa("y", limp(lt(y, cst(big)), lor(lt(y, cst(small)), eq(y, cst(small))))),
    )


def simulate_alpha_as_gseqap(spec: TmSpec) -> MachineSpec:
    """Compile a program into a pinned-constant machine over the same bound.

    The built machine first decodes its input: a counter u walks through
    pair codes in order while (a, b) tracks the decoded components, and
    each code present in the input deposits a mark on the work tape T
    (component 0) or the oracle relation Q (component 1).  Once u passes
    the largest input element the mode constant flips and the machine
    runs the program one row per step on (T, h, q), with oracle reads
    answered from Q and jumps answered from the pinned parameters.  The
    output relation shadows T throughout, so a halting run freezes with
    the final tape on Out and the whole computation stays short.
    """
    pnames = tuple(f"p{i}" for i in range(len(spec.params)))
    decls = [
        SymbolDecl("T", "Relation", 1),
        SymbolDecl("Q", "Relation", 1),
        SymbolDecl("u", "Constant"),
        SymbolDecl("a", "Constant"),
        SymbolDecl("b", "Constant"),
        SymbolDecl("h", "Constant"),
        SymbolDecl("q", "Constant"),
        SymbolDecl("m", "Constant"),
        *(SymbolDecl(p, "Constant") for p in pnames),
    ]
    sigma = Signature(decls)

    y = v("y")
    decoding = eq(cst("m"), lit(0))
    running = lnot(decoding)
    done = lnot(ex("y", land(rel("In", y), lor(lt(cst("u"), y), eq(y, cst("u"))))))
    busy = land(decoding, lnot(done))
    switch = land(decoding, done)
    halted = _halted(spec, "q")

    a_lt_b = lt(cst("a"), cst("b"))
    b_lt_a = lt(cst("b"), cst("a"))
    a_eq_b = eq(cst("a"), cst("b"))
    hit = land(rel("In", cst("u")), eq(_X, cst("a")))

    tape_step = _tm_tape(spec, "T", "h", "q")
    head_step = _tm_head(spec, "T", "h", "q", params=pnames)
    state_step = _tm_state(spec, "T", "h", "q", oracle="Q")

    keep = {name: eq(_X, cst(name)) for name in ("u", "a", "b", "h", "q", "m")}
    tau = {
        "In": rel("In", _X),
        "Out": rel("T", _X),
        "T": lor(
            land(busy, lor(rel("T", _X), land(eq(cst("b"), lit(0)), hit))),
            land(switch, rel("T", _X)),
            land(running, lor(land(halted, rel("T", _X)), land(lnot(halted), tape_step))),
        ),
        "Q": lor(
            land(busy, lor(rel("Q", _X), land(eq(cst("b"), lit(1)), hit))),
            land(lnot(busy), rel("Q", _X)),
        ),
        "u": lor(land(busy, _succ_sticky("u")), land(lnot(busy), keep["u"])),
        # The decoded components walk the pair codes in enumeration
        # order: the second component climbs to the current maximum,
        # then the first holds the maximum while the second restarts.
        "a": lor(
            land(
                busy,
                lor(
                    land(a_lt_b, _succ_sticky("a")),
                    land(b_lt_a, eq(_X, cst("a"))),
                    land(a_eq_b, eq(_X, lit(0))),
                ),
            ),
            land(lnot(busy), keep["a"]),
        ),
        "b": lor(
            land(
                busy,
                lor(
                    land(a_lt_b, land(_eq_succ("a", "b"), eq(_X, lit(0)))),
                    land(a_lt_b, land(lnot(_eq_succ("a", "b")), eq(_X, cst("b")))),
                    land(b_lt_a, _succ_sticky("b")),
                    land(a_eq_b, _succ_sticky("a")),
                ),
            ),
            land(lnot(busy), keep["b"]),
        ),
        "h": lor(
            land(busy, keep["h"]),
            land(switch, eq(_X, lit(0))),
            land(running, lor(land(halted, keep["h"]), land(lnot(halted), head_step))),
        ),
        "q": lor(
            land(busy, keep["q"]),
            land(switch, eq(_X, lit(0))),
            land(running, lor(land(halted, keep["q"]), land(lnot(halted), state_step))),
        ),
        "m": lor(land(busy, eq(_X, lit(0))), land(switch, eq(_X, lit(1))), land(running, keep["m"])),
    }
    for i, p in enumerate(pnames):
        tau[p] = eq(_X, cst(p))

    empty = lt(_X, lit(0))
    default = {
        "T": empty,
        "Q": empty,
        **{name: eq(_X, lit(0)) for name in ("u", "a", "b", "h", "q", "m")},
        **{p: eq(_X, lit(spec.params[i])) for i, p in enumerate(pnames)},
    }
    return MachineSpec(
        kappa=OMEGA,
        sigma=sigma,
        flavor=GSEQAP,
        params={p: OrdinalNotation.from_int(spec.params[i]) for i, p in enumerate(pnames)},
        tauWitnesses=tau,
        defaultWitnesses=default,
        name=f"alpha[{','.join(spec.states)}]",
    )
