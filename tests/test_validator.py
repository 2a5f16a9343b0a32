"""Machine admission and witness assembly."""

import random

import pytest

from gseqa import (
    ArityMismatch,
    D6Violation,
    EvalDomain,
    MachineInvalid,
    MissingSymbol,
    NotBounded,
    NotSimple,
    OrdinalNotation,
    OrdinalSet,
    OMEGA,
    Signature,
    State,
    SymbolDecl,
    Unsupported,
    apply_transition,
    check_bounded,
    check_machine,
    check_simple,
    lift,
    load,
    parse_formula,
    parse_ordinal,
    sample_states,
    sat2,
)
from gseqa.logic import format_formula, with_copy
from gseqa.runtime import Budget, Failed, run
from gseqa.states import parse_state
from gseqa import validator
from gseqa.validator import GSEQA, GSEQAP, MachineSpec

W = OMEGA
BASE = Signature()


def machine(sigma=BASE, tau=None, defaults=None, kappa=W, flavor=GSEQA, params=None):
    return MachineSpec(
        kappa=kappa,
        sigma=sigma,
        flavor=flavor,
        params=dict(params or {}),
        tauWitnesses={k: parse_formula(v, sigma) for k, v in (tau or {}).items()},
        defaultWitnesses={k: parse_formula(v, sigma) for k, v in (defaults or {}).items()},
    )


def bitflip():
    return machine(tau={"In": "~In(x)", "Out": "Out(x)"})


def erasure():
    return machine(tau={"In": "false", "Out": "Out(x)"})


def copier():
    return machine(tau={"In": "In(x)", "Out": "In(x)"})


# --- witness assembly -------------------------------------------------------


def test_check_bounded_assembles_biconditionals():
    phi = check_bounded(bitflip())
    vm = check_machine(bitflip())
    assert vm.phi_tau == phi
    bodies = {p.decl.name: p.body for p in vm._transition.parts}
    assert set(bodies) == {"In", "Out"}
    assert bodies["In"] == with_copy(parse_formula("~In(x)", BASE), 0)
    assert bodies["Out"] == with_copy(parse_formula("Out(x)", BASE), 0)


def test_check_bounded_renames_single_variable():
    sigma = BASE
    spec = machine(tau={"In": "In(y)", "Out": "Out(x)"})
    vm = check_machine(spec)
    (part,) = [p for p in vm._transition.parts if p.decl.name == "In"]
    assert part.body == with_copy(parse_formula("In(x)", sigma), 0)


def test_copy1_witness_is_not_bounded():
    spec = machine(tau={"In": "In@1(x)", "Out": "Out(x)"})
    with pytest.raises(NotBounded) as info:
        check_bounded(spec)
    assert info.value.symbol == "In"
    assert str(info.value) == "witness for 'In' is not bounded: references In@1"


def test_missing_witness_is_not_bounded():
    sigma = BASE.extend([SymbolDecl("R", "Relation", 1)])
    spec = machine(sigma, tau={"In": "In(x)", "Out": "Out(x)"})
    with pytest.raises(NotBounded) as info:
        check_bounded(spec)
    assert info.value.symbol == "R"


def test_witness_for_unknown_symbol_rejected():
    spec = MachineSpec(
        kappa=W,
        sigma=BASE,
        flavor=GSEQA,
        tauWitnesses={
            "In": parse_formula("In(x)", BASE),
            "Out": parse_formula("Out(x)", BASE),
            "Ghost": parse_formula("In(x)", BASE),
        },
    )
    with pytest.raises(NotBounded):
        check_bounded(spec)


def test_wrong_variable_count_is_arity_mismatch():
    sigma = BASE.extend([SymbolDecl("E", "Relation", 2)])
    bad = machine(
        sigma,
        tau={"In": "In(x)", "Out": "Out(x)", "E": "in(x1, x2) & in(x2, x3)"},
        defaults={"E": "false"},
    )
    with pytest.raises(ArityMismatch):
        check_bounded(bad)


def test_check_simple_accepts_membership_only():
    sigma = BASE.extend([SymbolDecl("h", "Constant")])
    spec = machine(
        sigma,
        tau={"In": "In(x)", "Out": "Out(x)", "h": "x = h"},
        defaults={"h": "x = 0"},
    )
    assert format_formula(check_simple(spec)) == "forall x. (x = h <-> x = 0)"


def test_check_simple_rejects_symbol_mentions():
    sigma = BASE.extend([SymbolDecl("h", "Constant")])
    spec = machine(
        sigma,
        tau={"In": "In(x)", "Out": "Out(x)", "h": "x = h"},
        defaults={"h": "In(x)"},
    )
    with pytest.raises(NotSimple) as info:
        check_simple(spec)
    assert info.value.symbol == "h"


def test_default_for_distinguished_symbol_rejected():
    spec = machine(
        tau={"In": "In(x)", "Out": "Out(x)"},
        defaults={"Out": "false"},
    )
    with pytest.raises(NotSimple):
        check_simple(spec)


# --- whole-machine admission ------------------------------------------------


def test_valid_machines_admit():
    for spec in (bitflip(), erasure(), copier()):
        vm = check_machine(spec)
        assert vm.tci.schema == "GSeqA"
        assert vm.kappa == W


def test_finite_kappa_needs_the_flag():
    spec = machine(
        tau={"In": "In(x)", "Out": "In(x)"}, kappa=OrdinalNotation.from_int(6)
    )
    with pytest.raises(MachineInvalid) as info:
        check_machine(spec)
    assert any(i.kind == "NonLimitKappa" for i in info.value.issues)
    vm = check_machine(spec, allow_finite_kappa=True)
    assert vm.kappa.to_int() == 6


def test_successor_kappa_rejected():
    succ = OMEGA.add(OrdinalNotation.from_int(1))
    spec = machine(tau={"In": "In(x)", "Out": "Out(x)"}, kappa=succ)
    with pytest.raises(MachineInvalid) as info:
        check_machine(spec)
    assert any(i.kind == "NonLimitKappa" for i in info.value.issues)


def test_pinned_constant_needs_parameterized_flavor():
    sigma = BASE.extend([SymbolDecl("c", "Constant")])
    tau = {"In": "In(x)", "Out": "Out(x)", "c": "x = c"}
    defaults = {"c": "x = 3"}
    pinned = {"c": OrdinalNotation.from_int(3)}

    hidden = machine(sigma, tau, defaults, params=pinned)
    with pytest.raises(MachineInvalid) as info:
        check_machine(hidden)
    assert any(i.kind == "BadConstraint" for i in info.value.issues)

    ok = machine(sigma, tau, defaults, flavor=GSEQAP, params=pinned)
    vm = check_machine(ok)
    assert vm.tci.pinned() == pinned


def test_pinning_a_relation_rejected():
    spec = machine(
        tau={"In": "In(x)", "Out": "Out(x)"},
        flavor=GSEQAP,
        params={"In": OrdinalNotation.from_int(1)},
    )
    with pytest.raises(MachineInvalid) as info:
        check_machine(spec)
    assert any(
        i.kind == "BadConstraint" and i.symbol == "In" for i in info.value.issues
    )


def test_pin_must_sit_below_kappa():
    sigma = BASE.extend([SymbolDecl("c", "Constant")])
    spec = machine(
        sigma,
        tau={"In": "In(x)", "Out": "Out(x)", "c": "x = c"},
        defaults={"c": "x = 0"},
        flavor=GSEQAP,
        params={"c": W},
    )
    with pytest.raises(MachineInvalid) as info:
        check_machine(spec)
    assert any(i.kind == "BadConstraint" for i in info.value.issues)


def test_missing_out_witness_reported_as_missing_distinguished():
    spec = machine(tau={"In": "In(x)"})
    with pytest.raises(MachineInvalid) as info:
        check_machine(spec)
    kinds = {i.kind for i in info.value.issues}
    assert "MissingDistinguished" in kinds


def test_ambiguous_constant_witness_caught_by_sampling():
    sigma = BASE.extend([SymbolDecl("h", "Constant")])
    spec = machine(
        sigma,
        tau={"In": "In(x)", "Out": "Out(x)", "h": "x = 0 | x = 1"},
        defaults={"h": "x = 0"},
    )
    with pytest.raises(MachineInvalid) as info:
        check_machine(spec)
    bad = [i for i in info.value.issues if i.kind == "D6Violation"]
    assert bad and bad[0].symbol == "h" and bad[0].state is not None


def test_unpinned_constant_default_must_be_single_valued():
    sigma = BASE.extend([SymbolDecl("h", "Constant")])
    spec = machine(
        sigma,
        tau={"In": "In(x)", "Out": "Out(x)", "h": "x = h"},
        defaults={"h": "in(x, 5)"},
    )
    with pytest.raises(MachineInvalid) as info:
        check_machine(spec)
    assert any(
        i.kind == "BadConstraint" and i.symbol == "h" for i in info.value.issues
    )


def test_default_must_match_pin():
    sigma = BASE.extend([SymbolDecl("c", "Constant")])
    spec = machine(
        sigma,
        tau={"In": "In(x)", "Out": "Out(x)", "c": "x = c"},
        defaults={"c": "x = 2"},
        flavor=GSEQAP,
        params={"c": OrdinalNotation.from_int(3)},
    )
    with pytest.raises(MachineInvalid) as info:
        check_machine(spec)
    assert any(i.kind == "BadConstraint" for i in info.value.issues)


def test_too_deep_witness_is_reported_by_symbol():
    # 1 500 flat conjuncts parse fine but overflow the recursive analyses.
    sigma = BASE.extend([SymbolDecl("h", "Constant")])
    spec = machine(
        sigma,
        tau={"In": "In(x)", "Out": " & ".join(["In(x)"] * 1500), "h": "x = h"},
        defaults={"h": " & ".join(["x = 0"] * 1500)},
    )
    with pytest.raises(MachineInvalid) as info:
        check_machine(spec)
    issues = [(i.kind, i.symbol) for i in info.value.issues]
    assert issues == [("Unsupported", "Out"), ("Unsupported", "h")]
    # the witnesses are bounded and simple, only too deep to analyse
    with pytest.raises(Unsupported, match="symbol=Out: witness is nested too deeply"):
        check_bounded(spec)
    with pytest.raises(Unsupported, match="symbol=h: witness is nested too deeply"):
        check_simple(spec)


def test_issue_reports_are_deterministic():
    spec = machine(tau={"In": "In@1(x)"})
    grab = lambda: [str(i) for i in pytest.raises(MachineInvalid, check_machine, spec).value.issues]
    assert grab() == grab()


# --- step kernel -------------------------------------------------------------


def test_apply_transition_flips_input():
    vm = check_machine(bitflip())
    s = State.make(W, {"In": OrdinalSet.finite({1, 3}), "Out": OrdinalSet.finite()})
    nxt = apply_transition(vm, s)
    assert nxt.relation("In") == OrdinalSet.cofinite({1, 3})
    again = apply_transition(vm, nxt)
    assert again.relation("In") == OrdinalSet.finite({1, 3})
    for pair in ((s, nxt), (nxt, again)):
        assert sat2(vm.phi_tau, pair, EvalDomain.omega())


def test_apply_transition_surrogate_matches_complement():
    vm = check_machine(bitflip())
    s = State.make(W, {"In": OrdinalSet.finite({0, 2}), "Out": OrdinalSet.finite()})
    nxt = apply_transition(vm, s, EvalDomain.surrogate(5))
    assert nxt.relation("In") == OrdinalSet.finite({1, 3, 4})
    assert sat2(vm.phi_tau, (s, nxt), EvalDomain.surrogate(5))


def defaults_machine() -> MachineSpec:
    sigma = BASE.extend([SymbolDecl("h", "Constant"), SymbolDecl("R", "Relation", 1)])
    return machine(
        sigma,
        tau={"In": "In(x)", "Out": "Out(x)", "h": "x = h", "R": "R(x)"},
        defaults={"h": "x = 0", "R": "in(x, 3)"},
    )


def test_default_values_use_bare_order_only():
    # the input {7} does not reach the defaults, which see the bare order
    state = load(check_machine(defaults_machine()), OrdinalSet.finite({7}))
    assert dict(state.items) == {
        "h": 0,
        "In": OrdinalSet.finite({7}),
        "Out": OrdinalSet.finite(),
        "R": OrdinalSet.finite({0, 1, 2}),
    }


@pytest.mark.parametrize("items", ["In={1} Out={} R={}", "In={1} Out={} R={} h={}"])
def test_a_step_names_the_symbol_the_state_lacks(items):
    # the constant h is missing, or held as a unary relation; the step
    # fails the same way with and without the footprint memo
    vm = check_machine(defaults_machine())
    state = parse_state(f"state kappa=w\nunary: {items}")
    for stepper in (vm, validator._memoised(vm)):
        with pytest.raises(MissingSymbol, match="'h'") as exc:
            apply_transition(stepper, state)
        assert exc.value.symbol == "h"


def test_a_step_names_a_symbol_only_a_later_part_reads():
    # R is read by the last part alone: every earlier part's key is read
    # from the state before R's is, and R is still the symbol named
    vm = check_machine(defaults_machine())
    assert vm._transition.footprints == (("In",), ("Out",), ("h",), ("R",))
    state = parse_state("state kappa=w\nconstants: h=1\nunary: In={1} Out={}")
    for stepper in (vm, validator._memoised(vm)):
        with pytest.raises(MissingSymbol, match="'R'") as exc:
            apply_transition(stepper, state)
        assert exc.value.symbol == "R"


def test_load_evaluates_no_default(monkeypatch):
    vm = check_machine(defaults_machine())
    A = OrdinalSet.cofinite({2})
    before = load(vm, A)

    def refuse(*args, **kwargs):
        raise AssertionError("defaults evaluated after admission")

    monkeypatch.setattr(validator, "_evaluate_parts", refuse)
    monkeypatch.setattr(validator, "_collect_default", refuse)
    assert load(vm, A) == before


def test_load_without_an_evaluation_domain_is_unsupported():
    tall = parse_ordinal("w*2")
    vm = check_machine(lift(bitflip(), tall))
    assert vm.start is None
    with pytest.raises(Unsupported, match=r"kappa = w\*2"):
        load(vm, OrdinalSet.finite({1}))


# --- sampling ----------------------------------------------------------------


def test_sampled_states_respect_pins():
    sigma = BASE.extend([SymbolDecl("c", "Constant")])
    spec = machine(
        sigma,
        tau={"In": "In(x)", "Out": "Out(x)", "c": "x = c"},
        defaults={"c": "x = 4"},
        flavor=GSEQAP,
        params={"c": OrdinalNotation.from_int(4)},
    )
    for s in sample_states(spec, random.Random(7), count=20):
        assert s.constant("c") == 4


def test_sampled_states_fit_finite_universe():
    spec = machine(
        tau={"In": "In(x)", "Out": "Out(x)"}, kappa=OrdinalNotation.from_int(5)
    )
    for s in sample_states(spec, random.Random(7), count=20):
        assert s.relation("In").kind == "finite"
        assert all(e < 5 for e in s.relation("In").elements)


# A constant's witness that defines no value, two values or a cofinite set.
# On the six-element surrogate the cofinite witness defines five values.
BAD_CONSTANTS = [
    (W, "false", "a set of size 0"),
    (W, "x = 0 | x = 2", "a set of size 2"),
    (W, "~(x = 3)", "a cofinite set"),
    (SIX := OrdinalNotation.from_int(6), "false", "a set of size 0"),
    (SIX, "x = 0 | x = 2", "a set of size 2"),
    (SIX, "~(x = 3)", "a set of size 5"),
]


@pytest.mark.parametrize("kappa, witness, defines", BAD_CONSTANTS)
def test_a_constant_that_is_not_pinned_to_one_value_is_named(kappa, witness, defines):
    sigma = BASE.extend([SymbolDecl("c", "Constant")])
    tau = {"In": "In(x)", "Out": "Out(x)", "c": witness}
    spec = machine(sigma, tau=tau, defaults={"c": "x = 1"}, kappa=kappa)
    detail = f"witness defines {defines} rather than one value"
    with pytest.raises(MachineInvalid) as info:
        check_machine(spec, allow_finite_kappa=True, sample_size=8)
    assert str(info.value) == f"D6Violation: symbol=c: {detail}"
    # admitted unsampled, the run fails at its first step
    vm = check_machine(spec, allow_finite_kappa=True, sample_size=0)
    outcome = run(vm, OrdinalSet.finite({1}), Budget(10, 1)).outcome
    assert outcome == Failed(f"D6Violation: transition does not determine 'c': {detail}")
    # the same witness as a default refuses the start state
    spec = machine(sigma, tau={**tau, "c": "x = c"}, defaults={"c": witness}, kappa=kappa)
    with pytest.raises(MachineInvalid) as info:
        check_machine(spec, allow_finite_kappa=True, sample_size=0)
    assert str(info.value) == f"BadConstraint: symbol=c: {detail}"
