"""The compiled step kernel against the public evaluation entries.

check_machine interns every witness body into one table and a step
evaluates each closed subformula once per state. These tests rebuild
each successor state part by part from the normalised witness bodies,
through defined_set and defined_relation, which share no memo with the
step, and run every construction once with the step checked against
phi_tau. A run also looks each part up in its footprint memo
before evaluating it, and evaluates a part that misses from the support
its footprint reads; the last tests check that the memo changes no
trace byte, lives on the run and keys on nothing but the footprint
values, and that every state a run visits steps as the entries do.
"""

import dataclasses
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gseqa
from gseqa import runtime, validator
from gseqa.alpharef import parse_alpha_program, simulate_alpha_as_gseqap
from gseqa.errors import GseqaError, MachineInvalid
from gseqa.logic import And, Signature, SymbolDecl, nodes, parse_formula
from gseqa.ordinals import OMEGA, OrdinalNotation, OrdinalSet
from gseqa.runtime import Budget, Failed, Terminated, dump_trace, load, run
from gseqa.satisfaction import EvalDomain, defined_relation, defined_set, sat2
from gseqa.states import State
from gseqa.transforms import compile_tm, compose, dovetail, flip, lift
from gseqa.validator import (
    GSEQA,
    MachineSpec,
    _memoised,
    apply_transition,
    check_machine,
    domain_for,
    sample_states,
    witness_variables,
)
from test_logic import reference_free_vars
from tm_tools import EVEN_HALTING, WRITER

PARITY = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "parity.apg"


# Out holds the members of In that leave room for three elements between
# them and some y. That y lies beyond every anchor, so the outer probe
# reaches it only because its body has rank 3.
ROOM = (
    "In(x) & (exists y. (x < y & (exists a. (x < a & a < y & "
    "(exists b. (a < b & b < y & (exists c. (b < c & c < y))))))))"
)


def _nested():
    sigma = Signature()
    return MachineSpec(
        kappa=OMEGA,
        sigma=sigma,
        flavor=GSEQA,
        tauWitnesses={"In": parse_formula("In(x)", sigma), "Out": parse_formula(ROOM, sigma)},
        defaultWitnesses={},
    )


# E collects ordered pairs of inputs below 5, and Out holds the inputs
# with an E-predecessor. Both witnesses read E under open variables, from
# set-ups with different quantifier ranges (E's relation has rank 0, Out's
# set rank 1) over the one view of the state.
RELATION = {
    "In": "In(x)",
    "E": "E(x1, x2) | (In(x1) & x1 < x2 & In(x2) & x2 < 5)",
    "Out": "In(x) & (exists y. (E(y, x) & y < x))",
}


def _relation():
    sigma = Signature([SymbolDecl("E", "Relation", 2)])
    return MachineSpec(
        kappa=OMEGA,
        sigma=sigma,
        flavor=GSEQA,
        tauWitnesses={k: parse_formula(v, sigma) for k, v in RELATION.items()},
        defaultWitnesses={"E": parse_formula("false", sigma)},
    )


def _specs():
    even = compile_tm(EVEN_HALTING)
    writer = compile_tm(WRITER)
    writer6 = dataclasses.replace(writer, kappa=OrdinalNotation.from_int(6))
    return {
        "compile": even,
        "compose": compose(writer, even),
        "flip": flip(writer),
        "lift": lift(writer6, 12),
        "dovetail": dovetail(even),
        "bridge": simulate_alpha_as_gseqap(parse_alpha_program(PARITY.read_text())),
        "nested": _nested(),
        "relation": _relation(),
    }


@pytest.fixture(scope="module")
def machines():
    return {
        name: check_machine(spec, allow_finite_kappa=True, sample_size=8)
        for name, spec in _specs().items()
    }


def reference_step(vm, state, domain):
    """The successor state, one public entry call per symbol."""
    witnesses = {p.decl.name: p.body for p in vm._transition.parts}
    values = {}
    for decl in vm.sigma.doubled_symbols():
        body, variables = witnesses[decl.name], witness_variables(decl)
        if decl.kind == "Constant":
            (values[decl.name],) = defined_set(body, state, domain, var=variables[0]).elements
        elif decl.arity == 1:
            values[decl.name] = defined_set(body, state, domain, var=variables[0])
        else:
            values[decl.name] = defined_relation(body, state, domain, variables=variables)
    return State.make(state.kappa, values)


@pytest.mark.parametrize("name", list(_specs()))
def test_compiled_step_matches_public_entries(machines, name):
    vm = machines[name]
    domains = [domain_for(vm.kappa)]
    if not vm.kappa.is_finite:
        domains.append(EvalDomain.surrogate(16))
    for domain in domains:
        for state in sample_states(vm.spec, random.Random(7), count=16):
            assert apply_transition(vm, state, domain) == reference_step(vm, state, domain)


# admits the parity bridge machine read from argv[1], steps it once and
# prints whether numpy was loaded
NO_NUMPY = """
import sys
from gseqa import OrdinalSet
from gseqa.alpharef import parse_alpha_program, simulate_alpha_as_gseqap
from gseqa.runtime import load
from gseqa.validator import apply_transition, check_machine

program = parse_alpha_program(open(sys.argv[1]).read())
vm = check_machine(simulate_alpha_as_gseqap(program), sample_size=8)
apply_transition(vm, load(vm, OrdinalSet.finite({3})))
print("numpy" in sys.modules)
"""


def test_bridge_steps_need_no_numpy(machines):
    # every open value of the parity bridge machine is a bitset, and the
    # package loads no numpy, for admission or for a step
    vm = machines["bridge"]
    domain = domain_for(vm.kappa)
    for k in (0, 3, 8):
        state = load(vm, OrdinalSet.finite({k}))
        for _ in range(30):
            stepped = apply_transition(vm, state)
            assert stepped == reference_step(vm, state, domain)
            state = stepped
    done = subprocess.run(
        [sys.executable, "-c", NO_NUMPY, str(PARITY)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=Path(gseqa.__file__).resolve().parents[1],
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


@pytest.mark.parametrize(
    "name, elements",
    [
        ("compile", {2}),
        ("compose", {1}),
        ("flip", {2}),
        ("lift", {1, 4}),
        ("dovetail", set()),
        ("bridge", {2}),
        ("nested", {1, 3}),
        ("relation", {1, 3, 4}),
    ],
)
def test_short_debug_run_agrees_with_phi_tau(machines, name, elements):
    vm = machines[name]
    budget = Budget(maxSuccessorStepsPerSegment=12, maxLimitJumps=1, snapshotPolicy="all")
    trace = run(vm, OrdinalSet.finite(elements), budget)
    assert not isinstance(trace.outcome, Failed), trace.outcome
    domain = domain_for(vm.kappa)
    pairs = [
        (before, after)
        for (stamp, before), (next_stamp, after) in zip(trace.snapshots, trace.snapshots[1:])
        if next_stamp == stamp.succ()
    ]
    if isinstance(trace.outcome, Terminated):
        pairs.append((trace.outcome.finalState,) * 2)
    assert pairs
    for pair in pairs:
        assert sat2(vm.phi_tau, pair, domain)


def test_bridge_witnesses_share_their_row_guards(machines):
    transition = machines["bridge"]._transition
    bodies = {p.decl.name: p.body for p in transition.parts}
    seen = {}
    for body in bodies.values():
        for node in nodes(body):
            seen.setdefault(node, set()).add(id(node))
    assert all(len(ids) == 1 for ids in seen.values())
    # tape T, head h and state q step under the same closed row guards
    guards = [
        {id(n) for n in nodes(bodies[s]) if isinstance(n, And) and not reference_free_vars(n)}
        for s in ("T", "h", "q")
    ]
    assert guards[0] & guards[1] & guards[2]
    total = sum(len(list(nodes(body))) for body in bodies.values())
    assert len(transition.interned) * 4 < total


def test_shared_closed_node_still_refuses_to_rebind_a_variable():
    # E's witness evaluates the closed `exists x3. Out(x3)` with x3 free to
    # bind, over the same probe bounds as F's; F's witness holds the same
    # node under its own x3, which the evaluator refuses, so the answer
    # E's evaluation left must not serve it.
    sigma = Signature([SymbolDecl("E", "Relation", 2), SymbolDecl("F", "Relation", 3)])
    tau = {
        "In": "In(x)",
        "Out": "Out(x)",
        "E": "E(x1, x2) & (exists x3. Out(x3))",
        "F": "F(x1, x2, x3) & (exists x3. Out(x3))",
    }
    spec = MachineSpec(
        kappa=OMEGA,
        sigma=sigma,
        flavor=GSEQA,
        tauWitnesses={k: parse_formula(v, sigma) for k, v in tau.items()},
        defaultWitnesses={k: parse_formula("false", sigma) for k in ("E", "F")},
    )
    with pytest.raises(MachineInvalid, match="rebinding of 'x3'"):
        check_machine(spec, sample_size=4)


# --- the footprint memo ---------------------------------------------------

# c counts up from 0. Each witness below breaks once c reaches 3, so a run
# fails there, after steps in which the In part hits the memo.
SUCC_C = "c < x & ~(exists y. (c < y & y < x))"
BREAKS = {
    "d6": {"c": f"(c < 3 & {SUCC_C}) | (c = 3 & x < 2)", "E": "E(x1, x2)"},
    "unrepresentable": {"c": SUCC_C, "E": "E(x1, x2) | (c = 3 & x1 < x2)"},
}
FAILURES = {
    "d6": "D6Violation: transition does not determine 'c'",
    "unrepresentable": "Unrepresentable: value of 'E': formula defines an infinite relation",
}


def _breaking(kind):
    sigma = Signature([SymbolDecl("c", "Constant"), SymbolDecl("E", "Relation", 2)])
    tau = {"In": "In(x)", "Out": "In(x) & c < x", **BREAKS[kind]}
    spec = MachineSpec(
        kappa=OMEGA,
        sigma=sigma,
        flavor=GSEQA,
        tauWitnesses={k: parse_formula(v, sigma) for k, v in tau.items()},
        defaultWitnesses={"c": parse_formula("x = 0", sigma), "E": parse_formula("false", sigma)},
    )
    # no sampled states: a sampled c = 3 would refuse admission
    return check_machine(spec, sample_size=0)


def _count_evaluations(monkeypatch):
    """A one-element list that counts the parts evaluated from now on."""
    count = [0]
    entry = validator._part_value

    def counted(*args, **kwargs):
        count[0] += 1
        return entry(*args, **kwargs)

    monkeypatch.setattr(validator, "_part_value", counted)
    return count


@pytest.fixture(scope="module")
def memo_machines(machines):
    ask3 = PARITY.with_name("ask3.apg").read_text()
    return {
        **machines,
        "ask3": check_machine(simulate_alpha_as_gseqap(parse_alpha_program(ask3))),
        "d6": _breaking("d6"),
        "unrepresentable": _breaking("unrepresentable"),
    }


MEMO_RUNS = [
    ("compile", [{2}, {3}]),
    ("compose", [{1}, {2}]),
    ("flip", [{2}, set()]),
    ("lift", [{1, 4}, {3}]),
    ("dovetail", [set()]),
    ("bridge", [{2}, {5}, {8}]),
    ("ask3", [{3}, {6}, {11}]),
    ("nested", [{1, 3}, {0, 2, 9}]),
    ("relation", [{1, 3, 4}]),
    ("d6", [{1, 3}]),
    ("unrepresentable", [{1, 3}]),
]


@pytest.mark.parametrize("name, inputs", MEMO_RUNS)
def test_memoised_run_writes_the_reference_trace(memo_machines, monkeypatch, name, inputs):
    vm = memo_machines[name]
    # the dovetail needs 600 steps a segment to reach w + 1
    steps = 600 if name == "dovetail" else 60
    budget = Budget(steps, 2, snapshotPolicy="all")
    count = _count_evaluations(monkeypatch)
    memoised = [dump_trace(run(vm, OrdinalSet.finite(A), budget)) for A in inputs]
    evaluated = count[0]
    # the reference steps the machine itself, whose transition has no memo
    monkeypatch.setattr(runtime, "_memoised", lambda vm: vm)
    reference = [dump_trace(run(vm, OrdinalSet.finite(A), budget)) for A in inputs]
    assert memoised == reference
    assert evaluated <= count[0] - evaluated
    if name in FAILURES:
        assert reference[0].splitlines()[-1].startswith(f"outcome\tFailed\t{FAILURES[name]}")


def _step_or_error(vm, state, domain):
    try:
        return apply_transition(vm, state, domain)
    except GseqaError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name, inputs", MEMO_RUNS)
def test_a_hit_needs_every_footprint_value(memo_machines, name, inputs):
    # Step a state, then the same state with one symbol's value replaced,
    # under one memo: a part whose footprint missed that symbol would hit
    # and return the first state's value. The states are those of a run;
    # the values are those the symbol takes in the run and in a few
    # sampled states. A surrogate keys on no anchor, so the support
    # cannot tell the two states apart either.
    vm = memo_machines[name]
    domain = domain_for(vm.kappa) if vm.kappa.is_finite else EvalDomain.surrogate(16)
    trace = run(vm, OrdinalSet.finite(inputs[0]), Budget(12, 1, snapshotPolicy="all"))
    states = [state for _, state in trace.snapshots]
    sampled = sample_states(vm.spec, random.Random(11), count=3)
    pool = {}
    for state in states + sampled:
        for symbol, value in state.items:
            pool.setdefault(symbol, set()).add(value)
    for state in states:
        for symbol, value in state.items:
            for other in pool[symbol] - {value}:
                changed = state.with_updates({symbol: other})
                stepper = _memoised(vm)
                _step_or_error(stepper, state, domain)
                got = _step_or_error(stepper, changed, domain)
                assert got == _step_or_error(vm, changed, domain), symbol


def test_the_memo_lives_on_the_run(monkeypatch):
    # a machine no other test has run, so that a memo kept on it would
    # make the second run below cheaper than the first
    vm = check_machine(_specs()["bridge"], sample_size=8)
    count = _count_evaluations(monkeypatch)
    evaluated = []
    for memo in (True, True, False):
        if not memo:
            monkeypatch.setattr(runtime, "_memoised", lambda vm: vm)
        before = count[0]
        run(vm, OrdinalSet.finite({2}), Budget(60, 1))
        evaluated.append(count[0] - before)
    # the second run starts as cold as the first, and both reused values
    assert evaluated[0] == evaluated[1] < evaluated[2]
    assert vm._transition.memo is None


def test_a_symbol_no_witness_reads_is_not_in_the_key(machines, monkeypatch):
    # Neither witness of the nested machine reads Out, so states that
    # differ only in Out share every key, and each part is anchored on
    # its own footprint: Out = {9} lifts the state's support top from 3
    # to 9, but not the top of what any part reads.
    vm = machines["nested"]
    stepper = _memoised(vm)
    count = _count_evaluations(monkeypatch)
    domain = EvalDomain.omega()
    evaluated = []
    for out in (set(), {9}, {2}):
        state = State.make(
            OMEGA, {"In": OrdinalSet.finite({1, 3}), "Out": OrdinalSet.finite(out)}
        )
        before = count[0]
        stepped = apply_transition(stepper, state, domain)
        evaluated.append(count[0] - before)
        assert stepped == reference_step(vm, state, domain)
    assert evaluated == [2, 0, 0]


@pytest.mark.parametrize("out", [4096, 2**21])
def test_a_far_value_that_no_witness_reads_moves_no_probe(machines, out):
    # The whole state's support top would put the nested machine's
    # comparisons over tables of some 17 million cells or more, past the
    # cap; the parts read In alone, whose top is 3.
    state = State.make(OMEGA, {"In": OrdinalSet.finite({1, 3}), "Out": OrdinalSet.finite({out})})
    stepped = apply_transition(machines["nested"], state, EvalDomain.omega())
    assert stepped == State.make(
        OMEGA, {"In": OrdinalSet.finite({1, 3}), "Out": OrdinalSet.finite({1, 3})}
    )


def test_a_step_never_reads_the_whole_states_support(machines, monkeypatch):
    # a step anchors each part on its own footprint values and literals,
    # so it never asks a fresh state for the top of its whole support
    def refuse(self):
        raise AssertionError("a step read the top of the whole state's support")

    monkeypatch.setattr(State, "support_bound", refuse)
    for vm in machines.values():
        for state in sample_states(vm.spec, random.Random(7), count=4):
            apply_transition(vm, state)


def _reference_or_error(vm, state, domain):
    try:
        return reference_step(vm, state, domain)
    except (GseqaError, ValueError) as exc:
        # a constant's witness that pins no single value fails the unpacking
        return type(exc)


@pytest.mark.parametrize("name, inputs", MEMO_RUNS)
def test_every_visited_state_steps_as_the_public_entries_do(memo_machines, name, inputs):
    # The step anchors each part on the support its footprint reads; the
    # public entries anchor every formula on the whole state's support.
    # Every state a run visits is stepped under the run's memo, so that
    # hits are checked too, and through the entries.
    vm = memo_machines[name]
    domain = domain_for(vm.kappa)
    for A in inputs:
        trace = run(vm, OrdinalSet.finite(A), Budget(40, 1, snapshotPolicy="all"))
        stepper = _memoised(vm)
        for _, state in trace.snapshots:
            got = _step_or_error(stepper, state, domain)
            want = _reference_or_error(vm, state, domain)
            if isinstance(got, str):
                assert isinstance(want, type), (got, state)
            else:
                assert got == want, state
