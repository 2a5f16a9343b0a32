"""Tape programs, and constructions that build machines from tables and
from other machines.

A tape program (TmSpec) has move rows, oracle-read rows and jump rows
over a parameter list; a plain table is a program with only move rows
and no parameters. compile_tm turns a plain table into a machine that
copies its input to the output relation and then simulates the table in
place.
compose, flip, and lift rebuild machines around an existing one: running
two machines in sequence, complementing the output, and re-basing a
machine inside a larger universe with its old bound pinned as a
parameter. dovetail schedules a compiled table against every candidate
input at once and collects, at the first limit, the set of candidates on
which the table halts.

All constructions return plain machine specifications; their outputs are
meant to pass check_machine unchanged.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass

from .errors import BadLift, KappaMismatch, MachineInvalid, ParseError, Unsupported
from .logic import (
    And,
    Apply,
    Const,
    Exists,
    Forall,
    Formula,
    Implies,
    Node,
    Signature,
    SymbolDecl,
    Term,
    Var,
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
    map_formula,
    nodes,
    rel,
    substitute,
    v,
)
from .ordinals import OMEGA, OrdinalNotation
from .validator import (
    GSEQA,
    GSEQAP,
    MachineSpec,
    _Part,
    _assemble,
    _collect_default,
    _collect_tau,
    _head,
)

__all__ = [
    "Jump",
    "OracleRead",
    "TmRule",
    "TmSpec",
    "parse_tm",
    "format_tm",
    "compile_tm",
    "compose",
    "flip",
    "lift",
    "dovetail",
]


# ---------------------------------------------------------------------------
# tape programs


@dataclass(frozen=True)
class TmRule:
    """One move row: in `state` reading `read`, write, move, enter `target`."""

    state: int
    read: int
    target: int
    write: int
    move: str


@dataclass(frozen=True)
class OracleRead:
    """Branch on whether the oracle holds the current head position.

    The tape and head stay put; only the state changes, to target_in
    when the head position is in the oracle and to target_out otherwise.
    """

    state: int
    read: int
    target_in: int
    target_out: int


@dataclass(frozen=True)
class Jump:
    """Warp the head to an ordinal parameter and change state.

    This is the construct that makes a program's parameter list matter:
    rows can name positions that are not reachable by counting steps.
    """

    state: int
    read: int
    param: int
    target: int


Rule = TmRule | OracleRead | Jump


@dataclass(frozen=True)
class TmSpec:
    """A tape program over the alphabet {0, 1}.

    states lists the state names with the initial state first and the
    single final state last. The rows must cover every pair of a working
    state and a read bit exactly once; the final state has no rows. Rows
    are move rows, oracle reads, or jumps to one of params. A plain
    table has only move rows and no params; compile_tm takes only those.
    """

    states: tuple[str, ...]
    rules: tuple[Rule, ...]
    params: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.states)
        if n < 1:
            raise ValueError("a machine needs at least one state")
        for name in self.states:
            if not _STATE_NAME_RE.fullmatch(name):
                raise ValueError(f"state name {name!r} is not one \\w+ token")
        if len(set(self.states)) != n:
            raise ValueError("duplicate state names")
        seen: set[tuple[int, int]] = set()
        for r in self.rules:
            if not 0 <= r.state < n - 1:
                raise ValueError(f"rule for a state without successors: {r.state}")
            targets = (
                (r.target_in, r.target_out) if isinstance(r, OracleRead) else (r.target,)
            )
            for target in targets:
                if not 0 <= target < n:
                    raise ValueError(f"rule targets unknown state {target}")
            if r.read not in (0, 1) or (isinstance(r, TmRule) and r.write not in (0, 1)):
                raise ValueError("tape alphabet is {0, 1}")
            if isinstance(r, TmRule) and r.move not in ("L", "R"):
                raise ValueError(f"move must be L or R, got {r.move!r}")
            if isinstance(r, Jump) and not 0 <= r.param < len(self.params):
                raise ValueError(
                    f"jump names parameter {r.param}, have {len(self.params)}"
                )
            if (r.state, r.read) in seen:
                raise ValueError(
                    f"duplicate rule for ({self.states[r.state]}, {r.read})"
                )
            seen.add((r.state, r.read))
        for q in range(n - 1):
            for b in (0, 1):
                if (q, b) not in seen:
                    raise ValueError(f"no rule for ({self.states[q]}, {b})")
        if any(p < 0 for p in self.params):
            raise ValueError("parameters must be naturals at this tape bound")

    @property
    def n(self) -> int:
        return len(self.states)

    def rule(self, state: int, read: int) -> Rule:
        for r in self.rules:
            if r.state == state and r.read == read:
                return r
        raise KeyError((state, read))


_STATE_NAME_RE = re.compile(r"\w+")  # the token by which a row names a state
_RULE_RE = re.compile(
    r"\(\s*(?P<src>\w+)\s*,\s*(?P<bit>[01])\s*\)\s*->\s*(?:"
    r"\(\s*(?P<target>\w+)\s*,\s*(?P<write>[01])\s*,\s*(?P<move>[LR])\s*\)"
    r"|oracle-read\s*\(\s*(?P<yes>\w+)\s*,\s*(?P<no>\w+)\s*\)"
    r"|jump\s*\(\s*(?P<param>\d+)\s*,\s*(?P<jump>\w+)\s*\)"
    r")\s*$"
)


def parse_tm(text: str) -> TmSpec:
    """Read a tape program from its text form.

    The format is a `states:` line naming the states, optional `initial:`
    and `final:` markers (defaulting to the first and last listed name),
    an optional `params:` line of naturals, and one row per transition:
    `(state, bit) -> (state, bit, L|R)`, `(state, bit) -> oracle-read(yes,
    no)` or `(state, bit) -> jump(i, state)`. Each header appears at most
    once, its key read case-insensitively. States are renumbered so the
    initial state is index 0 and the final state the last index.
    """
    names: list[str] = []
    initial: str | None = None
    final: str | None = None
    params: list[int] = []
    raw: list[tuple[int, re.Match[str]]] = []
    headers: set[str] = set()
    for ln, content in enumerate(text.splitlines(), start=1):
        line = content.split("#", 1)[0].strip()
        if not line:
            continue
        key, colon, value = line.partition(":")
        key = key.lower()
        if colon and key in ("states", "initial", "final", "params"):
            if key in headers:
                raise ParseError(f"line {ln}: second '{key}:' header")
            headers.add(key)
        if colon and key == "states":
            names = value.split()
            for name in names:
                if not _STATE_NAME_RE.fullmatch(name):
                    raise ParseError(f"line {ln}: state name {name!r} is not one \\w+ token")
        elif colon and key == "initial":
            initial = value.strip()
        elif colon and key == "final":
            final = value.strip()
        elif colon and key == "params":
            try:
                params = [int(p) for p in value.split()]
            except ValueError:
                raise ParseError(f"line {ln}: parameters must be naturals") from None
        elif (m := _RULE_RE.match(line)) is not None:
            raw.append((ln, m))
        else:
            raise ParseError(
                f"line {ln}: expected '(state, bit) -> (state, bit, L|R)', "
                f"'-> oracle-read(state, state)' or '-> jump(i, state)', got {line!r}"
            )
    if not names:
        raise ParseError("missing 'states:' line")
    initial = names[0] if initial is None else initial
    final = names[-1] if final is None else final
    for marker, name in (("initial", initial), ("final", final)):
        if name not in names:
            raise ParseError(f"{marker} state {name!r} is not listed")
    if initial == final and len(names) > 1:
        raise ParseError("initial and final markers name the same state")
    order = [initial]
    order += [s for s in names if s != initial and s != final]
    if final != initial:
        order.append(final)
    index = {s: i for i, s in enumerate(order)}
    rules: list[Rule] = []
    for ln, m in raw:
        for s in (m["src"], m["target"], m["yes"], m["no"], m["jump"]):
            if s is not None and s not in index:
                raise ParseError(f"line {ln}: unknown state {s!r}")
        q, b = index[m["src"]], int(m["bit"])
        if m["target"] is not None:
            rules.append(TmRule(q, b, index[m["target"]], int(m["write"]), m["move"]))
        elif m["yes"] is not None:
            rules.append(OracleRead(q, b, index[m["yes"]], index[m["no"]]))
        else:
            rules.append(Jump(q, b, int(m["param"]), index[m["jump"]]))
    try:
        return TmSpec(tuple(order), tuple(rules), tuple(params))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_tm(t: TmSpec) -> str:
    """Render a program in the form parse_tm reads back."""
    lines = [
        f"states: {' '.join(t.states)}",
        f"initial: {t.states[0]}",
        f"final: {t.states[-1]}",
    ]
    if t.params:
        lines.append(f"params: {' '.join(str(p) for p in t.params)}")
    for r in sorted(t.rules, key=lambda r: (r.state, r.read)):
        if isinstance(r, TmRule):
            row = f"({t.states[r.target]}, {r.write}, {r.move})"
        elif isinstance(r, OracleRead):
            row = f"oracle-read({t.states[r.target_in]}, {t.states[r.target_out]})"
        else:
            row = f"jump({r.param}, {t.states[r.target]})"
        lines.append(f"({t.states[r.state]}, {r.read}) -> {row}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# formula building blocks

X = v("x")


def _succ_sticky(sym: str) -> Formula:
    """x is the successor of sym, or sym itself when nothing lies above it.

    The second arm only matters on finite surrogate universes, where the
    largest element has no successor and the value sticks at the edge.
    """
    s = cst(sym)
    succ = land(
        lt(s, X),
        fa("y", limp(lt(v("y"), X), lor(lt(v("y"), s), eq(v("y"), s)))),
    )
    edge = land(lnot(ex("y", lt(s, v("y")))), eq(X, s))
    return lor(succ, edge)


def _pred_floor(sym: str) -> Formula:
    """x is the predecessor of sym, with 0 standing in below 0."""
    s = cst(sym)
    pred = land(
        lt(X, s),
        fa("y", limp(lt(v("y"), s), lor(eq(v("y"), X), lt(v("y"), X)))),
    )
    return lor(pred, land(eq(s, lit(0)), eq(X, lit(0))))


def _rows(t: TmSpec, kind: type) -> list:
    return [r for r in t.rules if isinstance(r, kind)]


def _guard(r: Rule, tape: str, head: str, state: str) -> Formula:
    """The row applies: the state matches and the head reads its bit."""
    atom = rel(tape, cst(head))
    return land(eq(cst(state), lit(r.state)), atom if r.read else lnot(atom))


def _halted(t: TmSpec, state: str) -> Formula:
    """No working state matches: the program is done, or the value is junk."""
    return land(*[lnot(eq(cst(state), lit(q))) for q in range(t.n - 1)])


def _tm_tape(t: TmSpec, tape: str, head: str, state: str) -> Formula:
    """Next tape contents under one program step: cells away from the head
    persist; the head cell takes the bit a move row writes, and keeps its
    bit under an oracle read or a jump."""
    here = rel(tape, cst(head))
    write_one = lor(
        *[_guard(r, tape, head, state) for r in _rows(t, TmRule) if r.write == 1],
        *[
            land(_guard(r, tape, head, state), here)
            for r in (*_rows(t, OracleRead), *_rows(t, Jump))
        ],
    )
    keep = land(lnot(eq(X, cst(head))), rel(tape, X))
    return lor(keep, land(eq(X, cst(head)), write_one))


def _tm_head(
    t: TmSpec, tape: str, head: str, state: str, params: tuple[str, ...] = ()
) -> Formula:
    """Next head position: a move row steps, an oracle read stays, and a
    jump goes to the constant that params names for its parameter."""
    return lor(
        *[
            land(
                _guard(r, tape, head, state),
                _succ_sticky(head) if r.move == "R" else _pred_floor(head),
            )
            for r in _rows(t, TmRule)
        ],
        *[
            land(_guard(r, tape, head, state), eq(X, cst(head)))
            for r in _rows(t, OracleRead)
        ],
        *[
            land(_guard(r, tape, head, state), eq(X, cst(params[r.param])))
            for r in _rows(t, Jump)
        ],
    )


def _tm_state(t: TmSpec, tape: str, head: str, state: str, oracle: str = "") -> Formula:
    """Next state: move rows and jumps name theirs; an oracle read asks the
    unary relation `oracle` about the head position."""
    asked = rel(oracle, cst(head))
    return lor(
        *[
            land(_guard(r, tape, head, state), eq(X, lit(r.target)))
            for r in (*_rows(t, TmRule), *_rows(t, Jump))
        ],
        *[
            land(
                _guard(r, tape, head, state),
                lor(
                    land(asked, eq(X, lit(r.target_in))),
                    land(lnot(asked), eq(X, lit(r.target_out))),
                ),
            )
            for r in _rows(t, OracleRead)
        ],
    )


def _renamed(part: _Part, mapping: dict[str, str]) -> _Part:
    """The part with its symbol and the relation and constant symbols in
    its body renamed. The mapping's keys are declared extra symbols, so
    membership, which is reserved, is never renamed."""

    def rename(node: Node) -> Node:
        if isinstance(node, (Apply, Const)) and node.name in mapping:
            return dataclasses.replace(node, name=mapping[node.name])
        return node

    decl = dataclasses.replace(part.decl, name=mapping.get(part.decl.name, part.decl.name))
    return _Part(decl, part.variables, map_formula(part.body, rename))


def _relativize(f: Formula, bound: Term) -> Formula:
    """Restrict every quantifier to values below the bound."""

    def restrict(node: Node) -> Node:
        if isinstance(node, Forall):
            return Forall(node.var, Implies(lt(Var(node.var), bound), node.body))
        if isinstance(node, Exists):
            return Exists(node.var, And(lt(Var(node.var), bound), node.body))
        return node

    return map_formula(f, restrict)


def _fresh(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


def _tau_parts(spec: MachineSpec) -> list[_Part]:
    parts, issues = _collect_tau(spec)
    if issues:
        raise MachineInvalid(issues)
    return parts


def _default_parts(spec: MachineSpec) -> dict[str, _Part]:
    parts, issues = _collect_default(spec)
    if issues:
        raise MachineInvalid(issues)
    return {p.decl.name: p for p in parts}


def _formula_vars(f: Formula) -> set[str]:
    """Every variable name occurring in the formula, bound or free."""
    return {
        n.name if isinstance(n, Var) else n.var
        for n in nodes(f)
        if isinstance(n, (Var, Exists, Forall))
    }


def _phases(flag: str, parts: list[_Part]) -> tuple[Formula, Formula, Formula]:
    """Guards for a machine that steps like parts while the flag constant
    is 0: the flag test, run (the step would change the state) and hand
    (it would not).

    The stall sentence holds exactly when the next state would repeat the
    current one: each symbol already satisfies its own transition witness.
    Its bound variables get a prefix chosen fresh against everything in
    the witness bodies, so it can sit inside another witness without
    shadowing or capturing anything.
    """
    used: set[str] = set()
    for part in parts:
        used |= _formula_vars(part.body)
        used |= set(part.variables)
    prefix = "s"
    while any(prefix + name in used for p in parts for name in p.variables):
        prefix += "s"
    renamed = []
    for part in parts:
        fresh = tuple(prefix + name for name in part.variables)
        env = {old: Var(new) for old, new in zip(part.variables, fresh)}
        renamed.append(_Part(part.decl, fresh, substitute(part.body, env)))
    zero = eq(cst(flag), lit(0))
    stall = _assemble(renamed, None)
    return zero, land(zero, lnot(stall)), land(zero, stall)


def _step_or_keep(guard: Formula, part: _Part) -> Formula:
    """The part's step where guard holds; elsewhere the symbol keeps its value."""
    return lor(land(guard, part.body), land(lnot(guard), _head(part, None)))


# ---------------------------------------------------------------------------
# compiling a table into a machine


def compile_tm(t: TmSpec) -> MachineSpec:
    """Build the machine that simulates a rule table on its input.

    The signature adds a head position h, a state index t, and an epoch
    flag e, all defaulting to 0. While e = 0 the single first step copies
    In to Out and raises the flag; afterwards Out serves as the tape and
    each step applies one table row. Entering the final state freezes the
    whole state, so the run terminates exactly when the table halts.
    Programs with oracle reads, jumps or parameters have no input coding
    here; simulate_alpha_as_gseqap compiles those.
    """
    if t.params or len(_rows(t, TmRule)) != len(t.rules):
        raise Unsupported(
            "compile_tm takes a plain table: move rows only, no parameters"
        )
    sigma = Signature(
        [
            SymbolDecl("h", "Constant"),
            SymbolDecl("t", "Constant"),
            SymbolDecl("e", "Constant"),
        ]
    )
    e0 = eq(cst("e"), lit(0))
    e1 = lnot(e0)
    halted = _halted(t, "t")
    zero = eq(X, lit(0))
    tau: dict[str, Formula] = {
        "In": rel("In", X),
        "Out": lor(
            land(e0, rel("In", X)),
            land(
                e1,
                lor(
                    land(halted, rel("Out", X)),
                    land(lnot(halted), _tm_tape(t, "Out", "h", "t")),
                ),
            ),
        ),
        "h": lor(
            land(e0, zero),
            land(
                e1,
                lor(land(halted, eq(X, cst("h"))), _tm_head(t, "Out", "h", "t")),
            ),
        ),
        "t": lor(
            land(e0, zero),
            land(
                e1,
                lor(land(halted, eq(X, cst("t"))), _tm_state(t, "Out", "h", "t")),
            ),
        ),
        "e": eq(X, lit(1)),
    }
    defaults = {name: eq(X, lit(0)) for name in ("h", "t", "e")}
    return MachineSpec(
        kappa=OMEGA,
        sigma=sigma,
        flavor=GSEQA,
        tauWitnesses=tau,
        defaultWitnesses=defaults,
        name=f"compiled[{','.join(t.states)}]",
        program=t,
    )


# ---------------------------------------------------------------------------
# sequential composition


def compose(m1: MachineSpec, m2: MachineSpec) -> MachineSpec:
    """The machine that runs m1 to completion and feeds its output to m2.

    Both private signatures are renamed apart (suffixes _1 and _2); a
    phase constant g starts at 0. While g = 0 the machine steps like m1
    with m2's symbols frozen; when m1's state would stop changing, one
    handoff step moves Out to In, clears Out, and sets g = 1; from then
    on the machine steps like m2. Termination of m2 is a fixed point of
    the whole machine.
    """
    if m1.kappa != m2.kappa:
        raise KappaMismatch(
            f"cannot compose machines over {m1.kappa} and {m2.kappa}"
        )
    ren1 = {d.name: d.name + "_1" for d in m1.sigma.extras()}
    ren2 = {d.name: d.name + "_2" for d in m2.sigma.extras()}
    parts1 = [_renamed(p, ren1) for p in _tau_parts(m1)]
    parts2 = [_renamed(p, ren2) for p in _tau_parts(m2)]

    g0, run1, hand = _phases("g", parts1)
    g1 = eq(cst("g"), lit(1))
    idle = lnot(lor(g0, g1))

    tau: dict[str, Formula] = {}
    # In and Out are shared, so they keep their names
    body1 = {p.decl.name: p for p in parts1}
    body2 = {p.decl.name: p for p in parts2}
    tau["In"] = lor(
        land(run1, body1["In"].body),
        land(hand, rel("Out", X)),
        land(g1, body2["In"].body),
        land(idle, rel("In", X)),
    )
    # no arm for the handoff phase: Out is cleared there
    tau["Out"] = lor(
        land(run1, body1["Out"].body),
        land(g1, body2["Out"].body),
        land(idle, rel("Out", X)),
    )
    for guard, body in ((run1, body1), (g1, body2)):
        for name, part in body.items():
            if name not in ("In", "Out"):
                tau[name] = _step_or_keep(guard, part)
    tau["g"] = lor(
        land(run1, eq(X, lit(0))),
        land(hand, eq(X, lit(1))),
        land(g1, eq(X, lit(1))),
        land(idle, eq(X, cst("g"))),
    )

    defaults: dict[str, Formula] = {"g": eq(X, lit(0))}
    for spec, ren in ((m1, ren1), (m2, ren2)):
        for name, part in _default_parts(spec).items():
            defaults[ren[name]] = part.body
    decls = [
        dataclasses.replace(d, name=ren1[d.name]) for d in m1.sigma.extras()
    ] + [dataclasses.replace(d, name=ren2[d.name]) for d in m2.sigma.extras()]
    decls.append(SymbolDecl("g", "Constant"))
    params = {ren1[k]: val for k, val in m1.params.items()}
    params.update({ren2[k]: val for k, val in m2.params.items()})
    flavor = GSEQAP if (m1.flavor == GSEQAP or m2.flavor == GSEQAP) else GSEQA
    return MachineSpec(
        kappa=m1.kappa,
        sigma=Signature(decls),
        flavor=flavor,
        params=params,
        tauWitnesses=tau,
        defaultWitnesses=defaults,
        name=f"compose({m1.name},{m2.name})",
    )


# ---------------------------------------------------------------------------
# output complement


def flip(m: MachineSpec) -> MachineSpec:
    """The machine computing the complement of m's output.

    A fresh flag starts at 0 and the machine steps exactly like m. When
    m's state would stop changing, one extra step replaces Out with its
    complement and raises the flag, after which everything is frozen.
    """
    flag = _fresh("f", set(m.sigma.names()))
    parts = _tau_parts(m)
    f0, run, hand = _phases(flag, parts)
    froze = lnot(f0)

    tau: dict[str, Formula] = {}
    for part in parts:
        name = part.decl.name
        if name == "Out":
            tau[name] = lor(
                land(run, part.body),
                land(hand, lnot(rel("Out", X))),
                land(froze, rel("Out", X)),
            )
        else:
            tau[name] = _step_or_keep(run, part)
    tau[flag] = lor(
        land(run, eq(X, lit(0))),
        land(hand, eq(X, lit(1))),
        land(froze, eq(X, cst(flag))),
    )

    defaults = {name: p.body for name, p in _default_parts(m).items()}
    defaults[flag] = eq(X, lit(0))
    sigma = m.sigma.extend([SymbolDecl(flag, "Constant")])
    return MachineSpec(
        kappa=m.kappa,
        sigma=sigma,
        flavor=m.flavor,
        params=dict(m.params),
        tauWitnesses=tau,
        defaultWitnesses=defaults,
        name=f"flip({m.name})",
        program=m.program,
    )


# ---------------------------------------------------------------------------
# lifting into a larger universe


def lift(m: MachineSpec, kappa2: OrdinalNotation | int) -> MachineSpec:
    """Re-base m inside the larger universe bound kappa2.

    The old bound becomes a pinned parameter c and a boot flag d starts
    at 0. The boot step reinstalls m's defaults relativized below c and
    trims In to [0, c); afterwards every step is m's step with all
    quantifiers bounded by c and every written cell kept below c, so the
    run below c is exactly m's run and everything at or above c stays 0.
    """
    if isinstance(kappa2, int):
        kappa2 = OrdinalNotation.from_int(kappa2)
    if not m.kappa < kappa2:
        raise BadLift(f"new bound {kappa2} does not extend {m.kappa}")
    taken = set(m.sigma.names())
    c = _fresh("c", taken)
    d = _fresh("d", taken | {c})
    bound = cst(c)

    parts = _tau_parts(m)
    dparts = _default_parts(m)
    consts = [dc for dc in m.sigma.extras() if dc.kind == "Constant"]
    inrange = land(*[lt(cst(dc.name), bound) for dc in consts])
    boot = eq(cst(d), lit(0))
    run = lnot(boot)

    def below(part: _Part, body: Formula) -> Formula:
        return land(_relativize(body, bound), *[lt(Var(n), bound) for n in part.variables])

    tau: dict[str, Formula] = {}
    for part in parts:
        name = part.decl.name
        if name == "In":
            boot_val: Formula = land(rel("In", X), lt(X, bound))
        elif name == "Out":
            boot_val = lt(X, lit(0))
        else:
            boot_val = below(dparts[name], dparts[name].body)
        tau[name] = lor(
            land(boot, boot_val),
            land(run, inrange, below(part, part.body)),
            land(run, lnot(inrange), _head(part, None)),
        )
    tau[d] = lor(land(boot, eq(X, lit(1))), land(run, eq(X, cst(d))))
    tau[c] = eq(X, cst(c))

    old_bound = lit(m.kappa)
    defaults: dict[str, Formula] = {}
    for name, part in dparts.items():
        defaults[name] = land(
            _relativize(part.body, old_bound),
            *[lt(Var(n), old_bound) for n in part.variables],
        )
    defaults[d] = eq(X, lit(0))
    defaults[c] = eq(X, old_bound)

    params = dict(m.params)
    params[c] = m.kappa
    sigma = m.sigma.extend(
        [SymbolDecl(c, "Constant"), SymbolDecl(d, "Constant")]
    )
    return MachineSpec(
        kappa=kappa2,
        sigma=sigma,
        flavor=GSEQAP,
        params=params,
        tauWitnesses=tau,
        defaultWitnesses=defaults,
        name=f"lift({m.name})",
        program=m.program,
    )


# ---------------------------------------------------------------------------
# dovetailing a compiled table over all candidate inputs


def dovetail(m: MachineSpec) -> MachineSpec:
    """Build the machine whose output is the set of candidates on which
    m's source table halts.

    Requires a machine carrying its rule table (as compile_tm outputs
    do). Work proceeds in rounds numbered by a counter c0: in round r
    every candidate not yet known to halt, up to r, is run from scratch
    on the work tape W for up to r table steps (c1 holds the candidate,
    c2 the step count, ih and it the inner head and state). Candidates
    seen to halt are collected in R. Since a candidate halting in k steps
    is found in every round past k, R converges pointwise, and the step
    after the first limit publishes R as the output, then stops.

    The flag d distinguishes the start state from the limit state, where
    the round counter has returned to 0; a state with a live round but
    d = 0 is unreachable and freezes.
    """
    table = m.program
    if not isinstance(table, TmSpec):
        raise Unsupported(
            "dovetailing needs the machine's source table; compile one first"
        )
    if m.kappa != OMEGA:
        raise Unsupported("dovetailing is defined at the first limit only")
    t = table

    zero = lit(0)
    fresh_start = land(eq(cst("c0"), zero), eq(cst("d"), zero))
    at_limit = land(eq(cst("c0"), zero), lnot(eq(cst("d"), zero)))
    impossible = land(lnot(eq(cst("c0"), zero)), eq(cst("d"), zero))
    working = land(lnot(eq(cst("c0"), zero)), lnot(eq(cst("d"), zero)))
    halted = _halted(t, "it")
    over = lt(cst("c0"), cst("c2"))
    init = land(working, eq(cst("c2"), zero))
    live = land(working, lnot(eq(cst("c2"), zero)))
    advance = land(live, lor(halted, over))
    step = land(live, lnot(lor(halted, over)))

    def cand(var: str) -> Formula:
        return land(
            lt(cst("c1"), v(var)),
            lor(lt(v(var), cst("c0")), eq(v(var), cst("c0"))),
            lnot(rel("R", v(var))),
        )

    more = ex("y", cand("y"))
    least_next = land(cand("x"), fa("y", limp(lt(v("y"), X), lnot(cand("y")))))
    some_unfinished = ex("y", lnot(rel("R", v("y"))))
    least_unfinished = land(
        lnot(rel("R", X)), fa("y", limp(lt(v("y"), X), rel("R", v("y"))))
    )
    round_start = lor(
        land(some_unfinished, least_unfinished),
        land(lnot(some_unfinished), eq(X, zero)),
    )

    def keep(name: str) -> Formula:
        return eq(X, cst(name))

    tau: dict[str, Formula] = {
        "In": rel("In", X),
        "Out": lor(land(at_limit, rel("R", X)), land(lnot(at_limit), rel("Out", X))),
        "c0": lor(
            land(fresh_start, eq(X, lit(1))),
            land(advance, lnot(more), _succ_sticky("c0")),
            land(
                lor(init, step, land(advance, more), at_limit, impossible),
                keep("c0"),
            ),
        ),
        "c1": lor(
            land(advance, more, least_next),
            land(advance, lnot(more), round_start),
            land(lnot(advance), keep("c1")),
        ),
        "c2": lor(
            land(init, eq(X, lit(1))),
            land(step, _succ_sticky("c2")),
            land(advance, eq(X, zero)),
            land(lor(fresh_start, at_limit, impossible), keep("c2")),
        ),
        "d": lor(land(fresh_start, eq(X, lit(1))), land(lnot(fresh_start), keep("d"))),
        "R": lor(
            land(advance, lor(rel("R", X), land(halted, eq(X, cst("c1"))))),
            land(lnot(advance), rel("R", X)),
        ),
        "W": lor(
            land(init, eq(X, cst("c1"))),
            land(step, _tm_tape(t, "W", "ih", "it")),
            land(lnot(lor(init, step)), rel("W", X)),
        ),
        "ih": lor(
            land(init, eq(X, zero)),
            land(step, _tm_head(t, "W", "ih", "it")),
            land(lnot(lor(init, step)), keep("ih")),
        ),
        "it": lor(
            land(init, eq(X, zero)),
            land(step, _tm_state(t, "W", "ih", "it")),
            land(lnot(lor(init, step)), keep("it")),
        ),
    }
    defaults: dict[str, Formula] = {
        name: eq(X, zero) for name in ("c0", "c1", "c2", "d", "ih", "it")
    }
    defaults["R"] = lt(X, zero)
    defaults["W"] = lt(X, zero)
    sigma = Signature(
        [SymbolDecl(name, "Constant") for name in ("c0", "c1", "c2", "d", "ih", "it")]
        + [SymbolDecl("R", "Relation", 1), SymbolDecl("W", "Relation", 1)]
    )
    return MachineSpec(
        kappa=OMEGA,
        sigma=sigma,
        flavor=GSEQA,
        tauWitnesses=tau,
        defaultWitnesses=defaults,
        name=f"dovetail({m.name})",
        program=t,
    )
