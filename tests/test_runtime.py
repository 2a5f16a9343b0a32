"""Transfinite runs: segments, limit jumps, traces, certificates."""

import hashlib
from pathlib import Path

import pytest

from gseqa import (
    OMEGA,
    EvalDomain,
    OrdinalNotation,
    OrdinalSet,
    Signature,
    State,
    SymbolDecl,
    apply_transition,
    check_machine,
    parse_formula,
    parse_ordinal,
    sat2,
)
from gseqa.runtime import (
    Budget,
    Failed,
    LimitUnresolved,
    OutOfBudget,
    ReductionCertificate,
    Terminated,
    certify_reduction,
    classify_tail,
    dump_trace,
    limit_state,
    load,
    run,
    unload,
)
from gseqa.transforms import compile_tm, dovetail, parse_tm
from gseqa.validator import GSEQA, MachineSpec

EVEN_HALTING_TM = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "even_halting.tm"
W = OMEGA
BASE = Signature()

SUCC = "in(h, x) & (forall y. (in(y, x) -> (in(y, h) | y = h)))"
PRED = "(in(x, h) & (forall y. (in(y, h) -> (y = x | in(y, x))))) | (h = 0 & x = 0)"
MOD3 = (
    "(in(h, 2) & in(h, x) & (forall y. (in(y, x) -> (in(y, h) | y = h))))"
    " | (~in(h, 2) & x = 0)"
)


def build(tau, defaults=None, sigma=BASE):
    spec = MachineSpec(
        kappa=W,
        sigma=sigma,
        flavor=GSEQA,
        tauWitnesses={k: parse_formula(v, sigma) for k, v in tau.items()},
        defaultWitnesses={k: parse_formula(v, sigma) for k, v in (defaults or {}).items()},
    )
    return check_machine(spec)


COUNTER_SIGMA = BASE.extend([SymbolDecl("h", "Constant")])


def copier():
    return build({"In": "In(x)", "Out": "In(x)"})


def bitflip():
    return build({"In": "~In(x)", "Out": "Out(x)"})


def counter():
    return build(
        {"In": "In(x)", "Out": "Out(x)", "h": SUCC},
        {"h": "x = 0"},
        COUNTER_SIGMA,
    )


def staircase():
    return build(
        {"In": "In(x)", "Out": "Out(x)", "h": PRED},
        {"h": "x = 50"},
        COUNTER_SIGMA,
    )


def mod3():
    return build(
        {"In": "In(x)", "Out": "Out(x)", "h": MOD3},
        {"h": "x = 0"},
        COUNTER_SIGMA,
    )


# --- tail classification ------------------------------------------------------


def test_stable_tail():
    tc = classify_tail([5] * 100)
    assert (tc.kind, tc.value, tc.verified) == ("Stable", 5, True)


def test_exact_cycle_minimum():
    tc = classify_tail([3, 7] * 50, period=2)
    assert (tc.kind, tc.value, tc.verified) == ("Periodic", 3, True)
    tc = classify_tail([4, 4, 4, 4], period=2)
    assert (tc.kind, tc.value) == ("Stable", 4)


def test_unbounded_tail_certified():
    tc = classify_tail(list(range(200)))
    assert (tc.kind, tc.verified) == ("Unbounded", True)


def test_recurrent_minimum():
    tc = classify_tail([k % 5 for k in range(200)])
    assert (tc.kind, tc.value, tc.verified) == ("RecurrentMin", 0, True)


def test_late_stabilization_is_unverified():
    tc = classify_tail([0] * 90 + [1] * 74)
    assert (tc.kind, tc.value, tc.verified) == ("Stable", 1, False)


def test_short_chaotic_history_is_unknown():
    tc = classify_tail(list(range(50, 10, -1)))
    assert tc.kind == "Unknown"


# --- limit_state ----------------------------------------------------------------


def st(h=None, inset=OrdinalSet.finite(), out=OrdinalSet.finite()):
    values = {} if h is None else {"h": h}
    return State.make(W, {**values, "In": inset, "Out": out})


def test_limit_of_constant_history_is_the_value():
    history = [st(h=5)] * 10
    lim, record = limit_state(history, W, W)
    assert lim.constant("h") == 5
    assert record.verified


def test_limit_of_exact_cycle_intersects_sets():
    A = OrdinalSet.finite({1, 2, 3})
    B = OrdinalSet.finite({2, 3, 4})
    lim, record = limit_state([st(inset=A), st(inset=B)] * 3, W, W, period=2)
    assert lim.relation("In") == OrdinalSet.finite({2, 3})
    assert record.cell("In").kind == "Periodic"


def test_limit_of_unbounded_constant_is_zero():
    history = [st(h=i) for i in range(120)]
    lim, record = limit_state(history, W, W)
    assert lim.constant("h") == 0
    cell = record.cell("h")
    assert cell.kind == "Unbounded" and cell.verified


def test_unclassifiable_history_returns_none():
    history = [st(h=v) for v in range(50, 10, -1)]
    lim, record = limit_state(history, W, W)
    assert lim is None
    assert record.cell("h").kind == "Unknown"


def test_an_unclassifiable_polarity_leaves_the_limit_unresolved():
    # Out is cofinite at every stage but two, the last of them two stages
    # before the end: no pattern fits, so the polarity cell is Unknown
    polarity = [1] * 100 + [0] + [1] * 97 + [0, 1]
    history = [st(out=OrdinalSet.cofinite() if p else OrdinalSet.finite()) for p in polarity]
    lim, record = limit_state(history, W, W)
    assert lim is None
    assert [(c.symbol, c.cell, c.kind) for c in record.cells] == [("Out", "polarity", "Unknown")]


def st_pairs(history_of_pairs, n=60):
    """n stages of a state with a binary relation E, stage i holding the
    tuples that history_of_pairs(i) gives."""
    return [
        State.make(W, {"In": OrdinalSet.finite(), "Out": OrdinalSet.finite(),
                       "E": frozenset(history_of_pairs(i))})
        for i in range(n)
    ]


@pytest.mark.parametrize(
    "present, kind, installed",
    [
        (lambda i: True, "Stable", True),
        (lambda i: i % 2 == 0, "RecurrentMin", False),
        (lambda i: i >= 3, "Stable", True),
        (lambda i: i % 3 != 2, "RecurrentMin", False),
    ],
    ids=["held throughout", "every other stage", "arrives at stage 3", "missing every third"],
)
def test_limit_of_a_binary_relation_classifies_each_tuple(present, kind, installed):
    lim, record = limit_state(st_pairs(lambda i: {(0, 1)} if present(i) else set()), W, W)
    (cell,) = record.cells
    assert (cell.symbol, cell.cell, cell.kind, cell.value) == ("E", (0, 1), kind, int(installed))
    assert lim.tuples("E") == (frozenset({(0, 1)}) if installed else frozenset())


def test_limit_of_a_binary_relation_over_a_period():
    history = st_pairs(lambda i: {(0, 1)} | ({(2, 3)} if i % 2 == 0 else set()))
    lim, record = limit_state(history, W, W, period=2)
    cells = {c.cell: (c.kind, c.value) for c in record.cells if c.symbol == "E"}
    assert cells == {(0, 1): ("Stable", 1), (2, 3): ("Periodic", 0)}
    assert lim.tuples("E") == {(0, 1)}


def test_a_binary_relation_crosses_the_limit():
    sigma = BASE.extend([SymbolDecl("c", "Constant"), SymbolDecl("E", "Relation", 2)])
    vm = build(
        {
            "In": "In(x)",
            "Out": "Out(x)",
            "c": "in(c, x) & (forall y. (in(y, x) -> (in(y, c) | y = c)))",
            "E": "E(x1, x2) | (x1 = 0 & x2 = 1)",
        },
        {"c": "x = 0", "E": "x1 < x1"},
        sigma,
    )
    trace = run(vm, OrdinalSet.finite(), Budget(20, 1))
    assert isinstance(trace.outcome, OutOfBudget) and trace.final_stamp == parse_ordinal("w+20")
    (record,) = trace.limitRecords
    assert [(c.symbol, c.cell, c.kind, c.value) for c in record.cells] == [
        ("c", None, "Unbounded", 0),
        ("E", (0, 1), "Stable", 1),
    ]
    at_w = dict(trace.snapshots)[W]
    assert at_w.tuples("E") == {(0, 1)} and at_w.constant("c") == 0


def test_empty_history_rejected():
    with pytest.raises(ValueError):
        limit_state([], W, W)


# --- terminating runs -----------------------------------------------------------


def test_copier_terminates_short():
    vm = copier()
    A = OrdinalSet.finite({1, 3})
    trace = run(vm, A)
    assert isinstance(trace.outcome, Terminated)
    assert trace.outcome.output == A
    assert trace.final_stamp == parse_ordinal("1")
    assert trace.length == parse_ordinal("2")
    assert trace.is_short(W)
    # the step and the fixed point both satisfy the transition sentence
    (_, start), (_, final) = trace.snapshots
    assert sat2(vm.phi_tau, (start, final), EvalDomain.omega())
    assert sat2(vm.phi_tau, (final, final), EvalDomain.omega())


def test_terminated_final_state_is_a_fixed_point():
    vm = copier()
    trace = run(vm, OrdinalSet.finite({2}))
    final = trace.outcome.finalState
    assert apply_transition(vm, final) == final


def test_staircase_walks_down_then_stops():
    vm = staircase()
    trace = run(vm, OrdinalSet.finite())
    assert isinstance(trace.outcome, Terminated)
    assert trace.outcome.finalState.constant("h") == 0
    assert trace.final_stamp == parse_ordinal("50")


def test_load_and_unload_shapes():
    vm = counter()
    s = load(vm, OrdinalSet.finite({4}))
    assert s.relation("In") == OrdinalSet.finite({4})
    assert s.relation("Out") == OrdinalSet.finite()
    assert s.constant("h") == 0
    assert unload(s) == OrdinalSet.finite()


# --- limit crossings ------------------------------------------------------------


def test_bitflip_runs_out_of_limit_jumps():
    vm = bitflip()
    trace = run(vm, OrdinalSet.finite({1, 3}), Budget(maxLimitJumps=3))
    assert isinstance(trace.outcome, OutOfBudget)
    assert len(trace.limitRecords) == 3
    assert trace.limitRecords[0].stamp == W
    assert trace.limitRecords[1].stamp == parse_ordinal("w*2")
    assert trace.warnings and "not injective" in trace.warnings[0]


def test_bitflip_limit_is_empty_input():
    vm = bitflip()
    trace = run(vm, OrdinalSet.finite({1, 3}), Budget(maxLimitJumps=1))
    at_limit = [s for stamp, s in trace.snapshots if stamp == W]
    assert at_limit and at_limit[0].relation("In") == OrdinalSet.finite()


def test_cycle_liminf_matches_brute_force_replay():
    vm = bitflip()
    A = OrdinalSet.finite({0, 2, 5})
    trace = run(vm, A, Budget(maxLimitJumps=1))
    limit = next(s for stamp, s in trace.snapshots if stamp == W)
    # replay the 2-cycle over three full periods and take pointwise
    # minima over every touched cell
    states = [load(vm, A)]
    for _ in range(6):
        states.append(apply_transition(vm, states[-1]))
    touched = set()
    for s in states:
        touched |= s.relation("In").elements
    for x in sorted(touched | {17, 23}):
        expect = min(1 if s.relation("In").member(x) else 0 for s in states[-6:])
        assert limit.relation("In").member(x) == bool(expect)


def test_counter_extrapolates_unbounded_then_runs_dry():
    vm = counter()
    trace = run(vm, OrdinalSet.finite({1}), Budget(400, 2))
    assert isinstance(trace.outcome, OutOfBudget)
    cell = trace.limitRecords[0].cell("h")
    assert cell.kind == "Unbounded" and cell.value == 0 and cell.verified


def test_mod3_cycle_detected_and_minimized():
    vm = mod3()
    trace = run(vm, OrdinalSet.finite({2}), Budget(maxLimitJumps=1))
    assert isinstance(trace.outcome, OutOfBudget)
    cell = trace.limitRecords[0].cell("h")
    assert cell.kind == "Periodic" and cell.value == 0 and cell.verified


def test_unresolved_limit_reported():
    vm = staircase()
    trace = run(vm, OrdinalSet.finite(), Budget(40, 2))
    assert trace.outcome == LimitUnresolved(W)
    assert trace.limitRecords[-1].cell("h").kind == "Unknown"


def test_short_mode_refuses_to_reach_kappa():
    vm = bitflip()
    trace = run(vm, OrdinalSet.finite({1}), mode="short")
    assert isinstance(trace.outcome, Failed)
    assert "NotShort" in trace.outcome.reason
    ok = run(copier(), OrdinalSet.finite({1}), mode="short")
    assert isinstance(ok.outcome, Terminated)


# --- trace integrity ------------------------------------------------------------


def stamp_key(stamp):
    return stamp


def test_event_stamps_strictly_increase_per_cell():
    trace = run(counter(), OrdinalSet.finite({1}), Budget(200, 2))
    per_cell = {}
    for e in trace.events:
        per_cell.setdefault((e.symbol, e.cell), []).append(e.stamp)
    for stamps in per_cell.values():
        assert all(a < b for a, b in zip(stamps, stamps[1:]))


def test_full_snapshot_policy_lists_distinct_consecutive_states():
    trace = run(staircase(), OrdinalSet.finite(), Budget(snapshotPolicy="all"))
    stamps = [stamp for stamp, _ in trace.snapshots]
    assert len(stamps) == len(set(stamps))
    for (s1, a), (s2, b) in zip(trace.snapshots, trace.snapshots[1:]):
        if s2 == s1.succ():
            assert a != b


def test_snapshot_policy_boundary_is_sparse():
    trace = run(staircase(), OrdinalSet.finite())
    assert [stamp for stamp, _ in trace.snapshots] == [
        parse_ordinal("0"),
        parse_ordinal("50"),
    ]


def test_runs_are_deterministic():
    first = dump_trace(run(bitflip(), OrdinalSet.finite({1, 3}), Budget(maxLimitJumps=2)))
    second = dump_trace(run(bitflip(), OrdinalSet.finite({1, 3}), Budget(maxLimitJumps=2)))
    assert first == second


def test_dump_trace_record_shapes():
    trace = run(copier(), OrdinalSet.finite({1}))
    kinds = {line.split("\t")[0] for line in dump_trace(trace).strip().split("\n")}
    assert kinds <= {"trace", "event", "snapshot", "classification", "warning", "outcome"}
    assert "outcome" in kinds and "event" in kinds


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(0)
    with pytest.raises(ValueError):
        Budget(snapshotPolicy="sometimes")


# Every way a run can end, beyond the ones tests/test_pinned.py pins:
# failing at load and mid-run, NotShort, and the snapshot policy "all" on
# segments closed by an exact repeat or ended by a fixed point. The digests
# were recorded before the run loop was last restructured.
EXIT_DIGESTS = {
    "load fails": "6a589d53a6c1322aaea4e2000e4682436c868988594296b6e77d3cae82f4b3fc",
    "step fails": "8811877e08503927ad5a8b9fb782079390d8e48e2f202c0de114b990fd15ad00",
    "not short": "07849bd8b04b8de8c80482ff6b73400c3d95cc5f62231097d4e6a84cfdf95b24",
    "all snapshots, period 2": "f66a972f27da69fd03f22120e1c01bbebda0ab9db3d91dec32db8eb29371f51e",
    "all snapshots, period 3": "d94bc270e24214db61aede720e736510eeeb17fe276fec601aa63ffc33666faa",
    "all snapshots, fixed point": "e2791ac7ec6411f6aa984b1370a63c172eaac632f6d8c4310ac5613fc7d41a4b",
}


def finite_copier():
    spec = MachineSpec(
        kappa=OrdinalNotation.from_int(6),
        sigma=BASE,
        flavor=GSEQA,
        tauWitnesses={k: parse_formula("In(x)", BASE) for k in ("In", "Out")},
    )
    return check_machine(spec, allow_finite_kappa=True)


def d6_at_three():
    """h counts up from 0; at 3 its witness holds for two values."""
    tau = {"In": "In(x)", "Out": "Out(x)", "h": f"(h < 3 & {SUCC}) | (h = 3 & x < 2)"}
    spec = MachineSpec(
        kappa=W,
        sigma=COUNTER_SIGMA,
        flavor=GSEQA,
        tauWitnesses={k: parse_formula(v, COUNTER_SIGMA) for k, v in tau.items()},
        defaultWitnesses={"h": parse_formula("x = 0", COUNTER_SIGMA)},
    )
    # no sampled states: a sampled h = 3 would refuse admission
    return check_machine(spec, sample_size=0)


def test_every_run_exit_writes_its_pinned_trace():
    every = Budget(snapshotPolicy="all", maxLimitJumps=2)
    traces = {
        "load fails": run(finite_copier(), OrdinalSet.finite({2, 9})),
        "step fails": run(d6_at_three(), OrdinalSet.finite({1})),
        "not short": run(bitflip(), OrdinalSet.finite({1}), mode="short"),
        "all snapshots, period 2": run(bitflip(), OrdinalSet.finite({1, 3}), every),
        "all snapshots, period 3": run(mod3(), OrdinalSet.finite({2}), every),
        "all snapshots, fixed point": run(staircase(), OrdinalSet.finite({4}), every),
    }
    outcomes = {name: type(t.outcome).__name__ for name, t in traces.items()}
    assert outcomes == {
        "load fails": "Failed",
        "step fails": "Failed",
        "not short": "Failed",
        "all snapshots, period 2": "OutOfBudget",
        "all snapshots, period 3": "OutOfBudget",
        "all snapshots, fixed point": "Terminated",
    }
    digests = {
        name: hashlib.sha256(dump_trace(t).encode()).hexdigest() for name, t in traces.items()
    }
    for name, digest in digests.items():
        print(f"    {name!r}: {digest!r},")
    assert digests == EXIT_DIGESTS


# --- certificates ---------------------------------------------------------------


def test_certificate_for_correct_output():
    A = OrdinalSet.finite({1, 4})
    cert = certify_reduction(copier(), A, A)
    assert isinstance(cert, ReductionCertificate)
    assert cert.ok and cert.short and cert.actual == A
    assert cert.verified and not cert.trace.limitRecords


def test_certificate_says_when_a_limit_was_only_extrapolated():
    # the dovetailed table reaches w+1 within 600 steps a segment, but two
    # R cells are Stable only on a trailing window at w
    vm = check_machine(dovetail(compile_tm(parse_tm(EVEN_HALTING_TM.read_text()))))
    trace = run(vm, OrdinalSet.finite(), Budget(600, 2))
    cert = certify_reduction(vm, OrdinalSet.finite(), trace.outcome.output, Budget(600, 2))
    assert cert.ok and not cert.verified
    (record,) = cert.trace.limitRecords
    assert {(c.symbol, c.cell) for c in record.cells if not c.verified} == {("R", 8), ("R", 10)}


def test_certificate_refusal_attaches_actual_output():
    A = OrdinalSet.finite({1, 4})
    cert = certify_reduction(copier(), A, OrdinalSet.finite({9}))
    assert not cert.ok
    assert cert.actual == A
    assert isinstance(cert.trace.outcome, Terminated)


def test_certificate_for_divergent_run():
    cert = certify_reduction(bitflip(), OrdinalSet.finite({1}), OrdinalSet.finite())
    assert not cert.ok and cert.actual is None
