"""Machine admission and witness assembly."""

import dataclasses
import random

import pytest

from gseqa import (
    ArityMismatch,
    D6Violation,
    EvalDomain,
    MachineInvalid,
    MissingDistinguished,
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
from gseqa.logic import (
    MEMBERSHIP,
    And,
    Apply,
    Const,
    Equal,
    Exists,
    Not,
    Or,
    OrdinalLiteral,
    Var,
    format_formula,
    with_copy,
)
from gseqa.runtime import Budget, Failed, run
from gseqa.states import models_tci, parse_state
from gseqa import validator
from gseqa.transforms import compile_tm
from gseqa.validator import GSEQA, GSEQAP, MachineSpec
from test_pinned import _constructions
from test_step_kernel import _specs
from tm_tools import EVEN_HALTING

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
    bodies = {p.decl.name: p.body for p in vm._parts}
    assert set(bodies) == {"In", "Out"}
    assert bodies["In"] == with_copy(parse_formula("~In(x)", BASE), 0)
    assert bodies["Out"] == with_copy(parse_formula("Out(x)", BASE), 0)


def test_check_bounded_renames_single_variable():
    sigma = BASE
    spec = machine(tau={"In": "In(y)", "Out": "Out(x)"})
    vm = check_machine(spec)
    (part,) = [p for p in vm._parts if p.decl.name == "In"]
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
    assert type(info.value) is NotBounded


def test_a_missing_out_is_missing_distinguished():
    spec = machine(tau={"In": "In(x)"})
    with pytest.raises(MissingDistinguished) as info:
        check_bounded(spec)
    assert isinstance(info.value, NotBounded)
    assert info.value.symbol == "Out"
    assert str(info.value) == "witness for 'Out' is not bounded: no transition witness"
    with pytest.raises(MachineInvalid) as info:
        check_machine(spec)
    assert [str(i) for i in info.value.issues] == [
        "MissingDistinguished: symbol=Out: no transition witness"
    ]


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
    with pytest.raises(ArityMismatch) as info:
        check_bounded(bad)
    assert info.value.symbol == "E"
    assert str(info.value) == "witness for 'E' uses variables ['x1', 'x2', 'x3'], expected ('x1', 'x2')"


def test_check_simple_raises_an_arity_mismatch_as_itself():
    spec = machine(H, H_TAU, defaults={"h": "x1 = 0 & x2 = 0"})
    with pytest.raises(ArityMismatch) as info:
        check_simple(spec)
    assert info.value.symbol == "h"
    assert str(info.value) == "witness for 'h' uses variables ['x1', 'x2'], expected ('x',)"


CAPTURES = {
    "tau": ({"In": "In@1(x)", "h": "y = h & (forall x. x = y)"}, {}),
    "default": ({"In": "In@1(x)"}, {"h": "y = 0 & (forall x. x = y)"}),
}


@pytest.mark.parametrize("case", list(CAPTURES))
def test_a_capture_during_the_rename_is_an_issue_for_its_symbol(case):
    # the single free y cannot become x inside the quantifier binding x;
    # the machine's other defect, In@1, is still reported
    tau, defaults = CAPTURES[case]
    sigma = BASE.extend([SymbolDecl("h", "Constant")])
    spec = machine(
        sigma, tau={"Out": "Out(x)", "h": "x = h", **tau}, defaults={"h": "x = 0", **defaults}
    )
    with pytest.raises(MachineInvalid) as info:
        check_machine(spec)
    assert [str(issue) for issue in info.value.issues] == [
        "NotBounded: symbol=In: references In@1",
        "ArityMismatch: symbol=h: witness for 'h' uses variable 'y', which cannot be"
        " renamed to 'x' inside a quantifier binding it",
    ]


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


def test_a_pin_that_is_not_an_ordinal_is_a_bad_constraint():
    sigma = BASE.extend([SymbolDecl("c", "Constant")])
    spec = machine(
        sigma,
        tau={"In": "In(x)", "Out": "Out(x)", "c": "x = c"},
        defaults={"c": "x = 3"},
        flavor=GSEQAP,
        params={"c": 3},
    )
    with pytest.raises(MachineInvalid) as info:
        check_machine(spec)
    assert [str(i) for i in info.value.issues] == [
        "BadConstraint: symbol=c: pinned value 3 is not an OrdinalNotation"
    ]


def test_a_default_that_moves_a_pin_is_named_in_its_words():
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
    (issue,) = info.value.issues
    assert str(issue) == "BadConstraint: symbol=c: default value 2 disagrees with pin 3"
    assert issue.state is None


def test_a_step_that_moves_a_pin_is_named_with_its_sample():
    # such a machine used to be admitted, and its run reached c = 4,
    # which models_tci refuses
    sigma = BASE.extend([SymbolDecl("c", "Constant")])
    spec = machine(
        sigma,
        tau={"In": "In(x)", "Out": "Out(x) | x = c", "c": "x = 4"},
        defaults={"c": "x = 3"},
        flavor=GSEQAP,
        params={"c": OrdinalNotation.from_int(3)},
    )
    with pytest.raises(MachineInvalid) as info:
        check_machine(spec)
    (issue,) = info.value.issues
    assert str(issue) == "BadConstraint: symbol=c: next value 4 disagrees with pin 3"
    assert issue.state.constant("c") == 3


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
    for check, symbol in ((check_bounded, "Out"), (check_simple, "h")):
        with pytest.raises(Unsupported, match="^witness is nested too deeply to analyse$") as exc:
            check(spec)
        assert exc.value.symbol == symbol


def test_the_first_defect_is_reported_on_shared_subformulas():
    # Each defective witness repeats a subformula that carries two defects,
    # and in each a reference with a defect sits above another. Admission
    # checks the interned body's distinct nodes; it must still report
    # what a walk of the tree meets first: copy indices before symbol use,
    # each in pre-order.
    sigma = Signature([SymbolDecl("h", "Constant"), SymbolDecl("E", "Relation", 2)])
    x, x1 = Var("x"), Var("x1")
    short_e = Apply("E", (x,))
    next_e = And(short_e, Apply("E", (Const("h", 1), x), 1))
    misused = Or(Apply("g", (Const("E"),)), short_e)
    tau = {
        "In": Or(next_e, Not(next_e)),
        "Out": And(Apply("Out", (x,)), And(Not(misused), misused)),
        "h": parse_formula("y = h & (exists z. z < y)", sigma),
        "E": And(Apply("E", (x1, Var("x2"))), Or(Exists("z", Apply("h", (Var("z"),))), Equal(x1, Const("E")))),
    }
    spec = MachineSpec(OMEGA, sigma, GSEQA, {}, tau, {})
    parts, errors = validator._collect_tau(spec)
    assert [str(validator._issue(error)) for error in errors] == [
        "NotBounded: symbol=In: references E@1",
        "ArityMismatch: symbol=Out: undeclared relation 'g'",
        "ArityMismatch: symbol=E: 'h' is a constant, not a relation",
    ]
    # the single free y is renamed to x
    (part,) = parts
    assert part.body == with_copy(parse_formula("x = h & (exists z. z < x)", sigma), 0)
    assert part.footprint == ("h",)


REBINDING = "rebinding of 'x' inside its own scope"
SAMPLE_FAILURES = {
    "step": ({"h": "x = h & (forall x. x = x)"}, {}, "Unsupported", "h", REBINDING),
    "default": ({}, {"h": "x = 0 & (forall x. x = x)"}, "Unsupported", "h", REBINDING),
    "relation": (
        {"E": "E(x1, x2) | x1 < x2"}, {}, "Unrepresentable", "E",
        "value of 'E': formula defines an infinite relation",
    ),
}


@pytest.mark.parametrize("case", list(SAMPLE_FAILURES))
def test_a_sample_state_failure_keeps_its_kind_and_names_its_symbol(case):
    tau, defaults, kind, symbol, detail = SAMPLE_FAILURES[case]
    sigma = BASE.extend([SymbolDecl("h", "Constant"), SymbolDecl("E", "Relation", 2)])
    spec = machine(
        sigma,
        tau={"In": "In(x)", "Out": "Out(x)", "h": "x = h", "E": "E(x1, x2)", **tau},
        defaults={"h": "x = 0", "E": "false", **defaults},
    )
    with pytest.raises(MachineInvalid) as info:
        check_machine(spec)
    (issue,) = info.value.issues
    assert (issue.kind, issue.symbol) == (kind, symbol)
    assert issue.detail.startswith(detail)
    assert (issue.state is None) == (case == "default")
    if case != "default":
        # unsampled, the run meets the same error; its Failed text is unchanged
        trace = run(check_machine(spec, sample_size=0), OrdinalSet.finite({1}), Budget(5))
        assert isinstance(trace.outcome, Failed)
        assert trace.outcome.reason.startswith(f"{kind}: {detail}")


H = BASE.extend([SymbolDecl("h", "Constant")])
H_TAU = {"In": "In(x)", "Out": "Out(x)", "h": "x = h"}
X = Var("x")

# Each spec has one defect, which admission reports in these words. The
# parser refuses a wrong arity and reads an undeclared name as a variable,
# so those two witnesses are built as trees.
DEFECTS = {
    "arity": (
        dataclasses.replace(
            bitflip(), tauWitnesses={"In": Apply("In", (X, X)), "Out": Apply("Out", (X,))}
        ),
        "ArityMismatch: symbol=In: 'In' has arity 1, applied to 2",
    ),
    "undeclared constant": (
        dataclasses.replace(
            bitflip(), tauWitnesses={"In": Apply("In", (X,)), "Out": Equal(X, Const("k"))}
        ),
        "ArityMismatch: symbol=Out: 'k' is not a declared constant",
    ),
    "copy index in a default": (
        dataclasses.replace(
            machine(H, H_TAU),
            defaultWitnesses={"h": Apply(MEMBERSHIP, (X, OrdinalLiteral(3)), 0)},
        ),
        "NotSimple: symbol=h: copy indices have no place in a default",
    ),
    "no default": (machine(H, H_TAU), "NotSimple: symbol=h: no default witness"),
    "empty universe": (
        machine(tau={"In": "In(x)", "Out": "Out(x)"}, kappa=OrdinalNotation.from_int(0)),
        "NonLimitKappa: empty universe",
    ),
    "unknown flavor": (
        machine(tau={"In": "In(x)", "Out": "Out(x)"}, flavor="gseqb"),
        "BadConstraint: unknown flavor 'gseqb'",
    ),
}


@pytest.mark.parametrize("case", list(DEFECTS))
def test_each_admission_defect_is_reported_in_its_words(case):
    spec, issue = DEFECTS[case]
    with pytest.raises(MachineInvalid) as info:
        check_machine(spec, allow_finite_kappa=True)
    assert [str(i) for i in info.value.issues] == [issue]


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
    # fails the same way with a fresh footprint memo and with a run's
    vm = check_machine(defaults_machine())
    state = parse_state(f"state kappa=w\nunary: {items}")
    for memo in (None, {}):
        with pytest.raises(MissingSymbol, match="'h'") as exc:
            apply_transition(vm, state, memo=memo)
        assert exc.value.symbol == "h"


def test_a_step_names_a_symbol_only_a_later_part_reads():
    # R is read by the last part alone: every earlier part's key is read
    # from the state before R's is, and R is still the symbol named
    vm = check_machine(defaults_machine())
    assert [p.footprint for p in vm._parts] == [("h",), ("In",), ("Out",), ("R",)]
    state = parse_state("state kappa=w\nconstants: h=1\nunary: In={1} Out={}")
    for memo in (None, {}):
        with pytest.raises(MissingSymbol, match="'R'") as exc:
            apply_transition(vm, state, memo=memo)
        assert exc.value.symbol == "R"


def test_load_evaluates_no_default(monkeypatch):
    vm = check_machine(defaults_machine())
    A = OrdinalSet.cofinite({2})
    before = load(vm, A)

    def refuse(*args, **kwargs):
        raise AssertionError("defaults evaluated after admission")

    monkeypatch.setattr(validator, "_part_values", refuse)
    monkeypatch.setattr(validator, "_collect_default", refuse)
    assert load(vm, A) == before


def test_load_without_an_evaluation_domain_is_unsupported():
    tall = parse_ordinal("w*2")
    vm = check_machine(lift(bitflip(), tall))
    assert vm.start is None
    with pytest.raises(Unsupported, match=r"kappa = w\*2"):
        load(vm, OrdinalSet.finite({1}))


def test_a_run_and_a_step_without_an_evaluation_domain_are_unsupported():
    # admitted, but w*2 has no evaluation domain, so no state can be stepped
    vm = check_machine(lift(compile_tm(EVEN_HALTING), parse_ordinal("w*2")))
    budget = Budget(maxSuccessorStepsPerSegment=5, maxLimitJumps=1)
    for attempt in (
        lambda: run(vm, OrdinalSet.finite({2}), budget),
        lambda: apply_transition(vm, State.make(vm.kappa, {})),
    ):
        with pytest.raises(Unsupported, match=r"^no evaluation domain for kappa = w\*2$"):
            attempt()


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


def test_sampling_refuses_a_pin_that_is_not_an_ordinal():
    sigma = BASE.extend([SymbolDecl("c", "Constant")])
    spec = machine(
        sigma, tau={"In": "In(x)", "Out": "Out(x)", "c": "x = c"}, flavor=GSEQAP, params={"c": 3}
    )
    with pytest.raises(ValueError, match="^c: pinned value 3 is not an OrdinalNotation$"):
        sample_states(spec, random.Random(7))


def test_admission_steps_its_samples_under_one_footprint_memo(monkeypatch):
    # c is pinned, so every sample gives the parts that read c alone one
    # footprint: each is evaluated once, not once per sample
    sigma = BASE.extend([SymbolDecl("c", "Constant")])
    spec = machine(
        sigma,
        tau={"In": "In(x)", "Out": "x = c", "c": "x = c"},
        defaults={"c": "x = 4"},
        flavor=GSEQAP,
        params={"c": OrdinalNotation.from_int(4)},
    )
    calls: dict[int, int] = {}
    part_value = validator._part_value

    def counted(ctx, part, anchor, state):
        calls[id(part)] = calls.get(id(part), 0) + 1
        return part_value(ctx, part, anchor, state)

    monkeypatch.setattr(validator, "_part_value", counted)
    vm = check_machine(spec)
    counts = {p.decl.name: calls[id(p)] for p in vm._parts}
    assert counts["Out"] == counts["c"] == 1
    assert 1 < counts["In"] <= 64


def test_every_sampled_state_models_its_machines_tci():
    # admission steps every sample it draws without checking it: each one
    # must already model the machine's tci
    specs = [*_constructions().values(), *_specs().values()]
    for spec in specs:
        vm = check_machine(spec, allow_finite_kappa=True, sample_size=0)
        for state in sample_states(spec, random.Random(validator.SAMPLE_SEED)):
            verdict = models_tci(state, spec.sigma, vm.tci)
            assert verdict.ok, (spec.name, verdict.reasons)


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
