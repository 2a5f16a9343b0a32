"""The compiled step kernel against the public evaluation entries.

check_machine interns every witness body into one table and a step
evaluates each closed subformula once per state. These tests rebuild
each successor state part by part from the witnesses recovered from
phi_tau, through defined_set and defined_relation, which share no memo
with the step, and run every construction once with the step checked
against phi_tau.
"""

import dataclasses
import random
from pathlib import Path

import pytest

from gseqa.alpharef import parse_alpha_program, simulate_alpha_as_gseqap
from gseqa.errors import MachineInvalid
from gseqa.logic import And, Signature, SymbolDecl, nodes, parse_formula
from gseqa.ordinals import OMEGA, OrdinalNotation, OrdinalSet
from gseqa.runtime import Budget, Failed, run
from gseqa.satisfaction import EvalDomain, defined_relation, defined_set
from gseqa.states import State
from gseqa.transforms import compile_tm, compose, dovetail, flip, lift
from gseqa.validator import (
    GSEQA,
    MachineSpec,
    apply_transition,
    check_machine,
    domain_for,
    sample_states,
    witness_variables,
)
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
# set-ups with different radixes (E's relation has rank 0, Out's set
# rank 1) over the one view of the state.
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
    witnesses = vm.reconstruct_witnesses()
    constants, unary, nary = {}, {}, {}
    for decl in vm.sigma.doubled_symbols():
        body, variables = witnesses[decl.name], witness_variables(decl)
        if decl.kind == "Constant":
            (constants[decl.name],) = defined_set(body, state, domain, var=variables[0]).elements
        elif decl.arity == 1:
            unary[decl.name] = defined_set(body, state, domain, var=variables[0])
        else:
            nary[decl.name] = defined_relation(body, state, domain, variables=variables)
    return State.make(state.kappa, constants, unary, nary)


@pytest.mark.parametrize("name", list(_specs()))
def test_compiled_step_matches_public_entries(machines, name):
    vm = machines[name]
    domains = [domain_for(vm.kappa)]
    if not vm.kappa.is_finite:
        domains.append(EvalDomain.surrogate(16))
    for domain in domains:
        for state in sample_states(vm.spec, random.Random(7), count=16):
            assert apply_transition(vm, state, domain) == reference_step(vm, state, domain)


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
    budget = Budget(maxSuccessorStepsPerSegment=12, maxLimitJumps=1)
    trace = run(machines[name], OrdinalSet.finite(elements), budget, debug=True)
    assert not isinstance(trace.outcome, Failed), trace.outcome


def test_bridge_witnesses_share_their_row_guards(machines):
    transition = machines["bridge"]._transition
    bodies = {p.decl.name: p.body for p in transition.parts}
    seen = {}
    for body in bodies.values():
        for node in nodes(body):
            seen.setdefault(node, set()).add(id(node))
    assert all(len(ids) == 1 for ids in seen.values())
    # tape T, head h and state q step under the same closed row guards
    facts = transition.interned.facts
    guards = [
        {id(n) for n in nodes(bodies[s]) if isinstance(n, And) and not facts[id(n)][0]}
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
