"""Construction checks: compiled tables against the direct simulator, and
the machine combinators against brute-force two-stage oracles."""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tm_tools import (
    EVEN_HALTING,
    WRITER,
    generated_halting_tms,
    halting_steps,
    simulate_tm,
)
from gseqa.errors import BadLift, GseqaError, KappaMismatch, ParseError, Unsupported
from gseqa.logic import Apply, Signature, Var, parse_formula
from gseqa.ordinals import OMEGA, OrdinalNotation, OrdinalSet, parse_ordinal
from gseqa.runtime import Budget, OutOfBudget, Terminated, run, unload
from gseqa.transforms import (
    Jump,
    OracleRead,
    TmRule,
    TmSpec,
    compile_tm,
    compose,
    dovetail,
    flip,
    format_tm,
    lift,
    parse_tm,
)
from gseqa.validator import GSEQA, GSEQAP, MachineSpec, check_machine

BUDGET = Budget(maxSuccessorStepsPerSegment=3000, maxLimitJumps=1)

# Three steps, always halts: writes 1 at cells 0 and 1, then stops.


def output_of(vm, elements, budget=BUDGET):
    trace = run(vm, OrdinalSet.finite(frozenset(elements)), budget)
    assert isinstance(trace.outcome, Terminated), trace.outcome
    return unload(trace.outcome.finalState)


# ---------------------------------------------------------------------------
# tables and their text form


EXAMPLE = """
# walks right, accepts a mark at an even position
states: q0 q1 q2
initial: q0
final: q2
(q0, 0) -> (q1, 0, R)
(q0, 1) -> (q2, 1, R)
(q1, 0) -> (q0, 0, R)
(q1, 1) -> (q1, 1, R)
"""


class TestTableFormat:
    def test_parse_example(self):
        assert parse_tm(EXAMPLE) == EVEN_HALTING

    def test_round_trip(self):
        text = format_tm(EVEN_HALTING)
        assert parse_tm(text) == EVEN_HALTING

    def test_markers_renumber(self):
        text = (
            "states: mid accept start\n"
            "initial: start\nfinal: accept\n"
            "(start, 0) -> (mid, 0, R)\n(start, 1) -> (accept, 1, R)\n"
            "(mid, 0) -> (start, 0, R)\n(mid, 1) -> (mid, 1, R)\n"
        )
        t = parse_tm(text)
        assert t.states == ("start", "mid", "accept")
        assert t.rule(0, 1).target == 2

    def test_missing_states_line(self):
        with pytest.raises(ParseError, match="states"):
            parse_tm("(q0, 0) -> (q0, 0, R)\n")

    def test_bad_row_reports_line(self):
        text = "states: a b\n(a, 0) -> (b, 0, R)\n(a, 2) -> (b, 0, R)\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_tm(text)

    @pytest.mark.parametrize(
        "header", ["states: q0 q1 halt", "initial: q1", "final: q1", "params: 3", "STATES: a b"]
    )
    def test_a_repeated_header_names_its_line(self, header):
        # the later header used to replace the earlier one
        text = "states: a b\ninitial: a\nfinal: b\nparams: 2\n(a, 0) -> (b, 0, R)\n"
        text += header + "\n(a, 1) -> (b, 1, R)\n"
        key = header.partition(":")[0].lower()
        with pytest.raises(ParseError, match=rf"^line 6: second '{key}:' header$"):
            parse_tm(text)

    def test_incomplete_table_rejected(self):
        with pytest.raises(ParseError, match="no rule"):
            parse_tm("states: a b\n(a, 0) -> (b, 0, R)\n")

    def test_single_state_table(self):
        t = parse_tm("states: q0\n")
        assert t.n == 1 and t.rules == ()

    def test_duplicate_rule_rejected(self):
        rules = (
            TmRule(0, 0, 1, 0, "R"),
            TmRule(0, 0, 1, 1, "R"),
            TmRule(0, 1, 1, 1, "R"),
        )
        with pytest.raises(ValueError, match="duplicate"):
            TmSpec(("a", "b"), rules)

    def test_a_state_name_no_row_can_name_is_refused(self):
        rules = (TmRule(0, 0, 1, 0, "R"), TmRule(0, 1, 1, 1, "R"))
        # format_tm used to write a table that parse_tm refused
        with pytest.raises(ValueError, match=r"state name 's 0' is not one \\w\+ token"):
            TmSpec(("s 0", "done"), rules)
        # parse_tm used to refuse each row naming do-ne for its shape
        text = "states: s0 do-ne\n(s0, 0) -> (do-ne, 0, R)\n(s0, 1) -> (do-ne, 1, R)\n"
        with pytest.raises(ParseError, match=r"^line 1: state name 'do-ne' is not one"):
            parse_tm(text)

    def test_rule_for_final_state_rejected(self):
        with pytest.raises(ValueError):
            TmSpec(
                ("a", "b"),
                (
                    TmRule(0, 0, 1, 0, "R"),
                    TmRule(0, 1, 1, 1, "R"),
                    TmRule(1, 0, 0, 0, "L"),
                ),
            )

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_on_random_tables(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        params = tuple(
            data.draw(st.lists(st.integers(min_value=0, max_value=50), max_size=3))
        )
        state = st.integers(min_value=0, max_value=n - 1)
        kinds = ("move", "read", "jump") if params else ("move", "read")

        def row(q: int, b: int):
            kind = data.draw(st.sampled_from(kinds))
            if kind == "move":
                return TmRule(
                    q,
                    b,
                    data.draw(state),
                    data.draw(st.integers(min_value=0, max_value=1)),
                    data.draw(st.sampled_from("LR")),
                )
            if kind == "read":
                return OracleRead(q, b, data.draw(state), data.draw(state))
            return Jump(
                q,
                b,
                data.draw(st.integers(min_value=0, max_value=len(params) - 1)),
                data.draw(state),
            )

        rules = tuple(row(q, b) for q in range(n - 1) for b in (0, 1))
        t = TmSpec(tuple(f"q{i}" for i in range(n)), rules, params)
        assert parse_tm(format_tm(t)) == t


# ---------------------------------------------------------------------------
# compilation


class TestCompileTm:
    def test_input_witness_is_the_copy(self):
        vm = check_machine(compile_tm(EVEN_HALTING))
        (part,) = [p for p in vm._parts if p.decl.name == "In"]
        assert part.body == Apply("In", (Var("x"),), 0)

    def test_one_state_table_copies_and_stops(self):
        vm = check_machine(compile_tm(TmSpec(("q0",), ())))
        trace = run(vm, OrdinalSet.finite({1, 4}), BUDGET)
        assert isinstance(trace.outcome, Terminated)
        assert unload(trace.outcome.finalState) == OrdinalSet.finite({1, 4})
        assert trace.final_stamp == OrdinalNotation.from_int(1)

    def test_outputs_match_direct_simulation(self):
        for table in generated_halting_tms(count=2):
            vm = check_machine(compile_tm(table))
            for k in range(8):
                halted, tape = simulate_tm(table, {k})
                assert halted
                trace = run(vm, OrdinalSet.finite({k}), BUDGET)
                assert isinstance(trace.outcome, Terminated)
                assert trace.is_short(vm.kappa)
                assert unload(trace.outcome.finalState) == OrdinalSet.finite(tape)

    def test_divergence_crosses_the_limit(self):
        vm = check_machine(compile_tm(EVEN_HALTING))
        trace = run(vm, OrdinalSet.finite({3}), Budget(400, 1))
        assert isinstance(trace.outcome, OutOfBudget)
        assert not trace.is_short(vm.kappa)

    def test_every_generated_table_is_admitted(self):
        for table in generated_halting_tms():
            check_machine(compile_tm(table))

    def test_carries_its_table(self):
        assert compile_tm(WRITER).program == WRITER

    def test_takes_only_plain_tables(self):
        reads = TmSpec(("a", "z"), (OracleRead(0, 0, 1, 1), TmRule(0, 1, 1, 1, "R")))
        jumps = TmSpec(("a", "z"), (Jump(0, 0, 0, 1), TmRule(0, 1, 1, 1, "R")), (3,))
        params = TmSpec(WRITER.states, WRITER.rules, (3,))
        for program in (reads, jumps, params):
            with pytest.raises(Unsupported, match="plain table"):
                compile_tm(program)


# ---------------------------------------------------------------------------
# sequential composition


class TestCompose:
    def test_kappa_mismatch(self):
        m = compile_tm(WRITER)
        m6 = dataclasses.replace(m, kappa=OrdinalNotation.from_int(6))
        with pytest.raises(KappaMismatch):
            compose(m, m6)

    def test_matches_running_in_sequence(self):
        tables = generated_halting_tms(count=2)
        m1, m2 = compile_tm(tables[0]), compile_tm(tables[1])
        vm1, vm2 = check_machine(m1), check_machine(m2)
        vmc = check_machine(compose(m1, m2))
        for k in range(8):
            staged = output_of(vm2, output_of(vm1, {k}).elements)
            assert output_of(vmc, {k}) == staged

    def test_short_runs_compose_to_short_runs(self):
        m = compile_tm(WRITER)
        vmc = check_machine(compose(m, m))
        trace = run(vmc, OrdinalSet.finite({4}), BUDGET)
        assert isinstance(trace.outcome, Terminated)
        assert trace.is_short(vmc.kappa)

    def test_associative_up_to_outputs(self):
        a, b, c = (compile_tm(t) for t in generated_halting_tms(count=3))
        left = check_machine(compose(compose(a, b), c))
        right = check_machine(compose(a, compose(b, c)))
        for k in (0, 3, 5):
            assert output_of(left, {k}) == output_of(right, {k})

    def test_private_symbols_renamed_apart(self):
        m = compile_tm(WRITER)
        names = set(compose(m, m).sigma.names())
        assert {"h_1", "t_1", "e_1", "h_2", "t_2", "e_2", "g"} <= names

    def test_flavor_promotion(self):
        m = compile_tm(WRITER)
        p = dataclasses.replace(m, flavor=GSEQAP)
        assert compose(m, p).flavor == GSEQAP
        assert compose(m, m).flavor == "gseqa"


# ---------------------------------------------------------------------------
# output complement


class TestFlip:
    def test_complement_with_cofinite_output(self):
        m = compile_tm(WRITER)
        vm, vmf = check_machine(m), check_machine(flip(m))
        for k in (0, 2, 5):
            base = output_of(vm, {k})
            flipped = output_of(vmf, {k})
            assert flipped == base.complement()
            assert flipped.kind == "cofinite"

    def test_one_extra_step(self):
        m = compile_tm(WRITER)
        vm, vmf = check_machine(m), check_machine(flip(m))
        for k in (0, 3):
            A = OrdinalSet.finite({k})
            assert run(vmf, A, BUDGET).length == run(vm, A, BUDGET).length.succ()

    def test_double_flip_is_identity(self):
        m = compile_tm(WRITER)
        vm = check_machine(m)
        vmff = check_machine(flip(flip(m)))
        for k in (0, 1, 4):
            assert output_of(vmff, {k}) == output_of(vm, {k})


# ---------------------------------------------------------------------------
# lifting


class TestLift:
    def setup_method(self):
        self.m6 = dataclasses.replace(
            compile_tm(WRITER), kappa=OrdinalNotation.from_int(6)
        )

    def test_rejects_non_extension(self):
        with pytest.raises(BadLift):
            lift(self.m6, 6)
        with pytest.raises(BadLift):
            lift(self.m6, 3)

    def test_pins_the_old_bound(self):
        lifted = lift(self.m6, 12)
        assert lifted.flavor == GSEQAP
        assert lifted.params["c"] == OrdinalNotation.from_int(6)
        check_machine(lifted, allow_finite_kappa=True)

    def test_surrogate_outputs_preserved(self):
        vm6 = check_machine(self.m6, allow_finite_kappa=True)
        vm12 = check_machine(lift(self.m6, 12), allow_finite_kappa=True)
        budget = Budget(maxSuccessorStepsPerSegment=200, maxLimitJumps=1)
        growths = set()
        for bits in range(2**6):
            elements = {i for i in range(6) if bits >> i & 1}
            t6 = run(vm6, OrdinalSet.finite(elements), budget)
            t12 = run(vm12, OrdinalSet.finite(elements), budget)
            assert isinstance(t6.outcome, Terminated)
            assert isinstance(t12.outcome, Terminated)
            out6 = unload(t6.outcome.finalState)
            out12 = unload(t12.outcome.finalState)
            assert out12 == out6
            assert all(x < 6 for x in out12.elements)
            growths.add(t12.final_stamp.to_int() - t6.final_stamp.to_int())
        assert len(growths) == 1
        assert growths.pop() < 10

    def test_omega_machine_lifts_structurally(self):
        lifted = lift(compile_tm(WRITER), parse_ordinal("w*2"))
        vm = check_machine(lifted)
        assert vm.kappa == parse_ordinal("w*2")


# ---------------------------------------------------------------------------
# long witnesses


def _wide(n, kappa=OMEGA):
    """A machine whose Out witness is n conjuncts In(x), which parse to a
    left-deep chain of n - 1 conjunctions."""
    sigma = Signature()
    tau = {"In": "In(x)", "Out": " & ".join(["In(x)"] * n)}
    return MachineSpec(
        kappa, sigma, GSEQA, tauWitnesses={k: parse_formula(t, sigma) for k, t in tau.items()}
    )


WIDE = {
    "compose": lambda n: compose(_wide(n), _wide(n)),
    "flip": lambda n: flip(_wide(n)),
    "lift": lambda n: lift(_wide(n, OrdinalNotation.from_int(6)), 12),
}


def _admitted(spec):
    """The construction admitted in a new thread, whose stack starts as
    empty as a program's, so that the test runner's frames do not count
    against the recursion limit."""
    with ThreadPoolExecutor(1) as pool:
        check = pool.submit(check_machine, spec, allow_finite_kappa=True, sample_size=4)
        return check.result(timeout=300)


@pytest.mark.parametrize("kind", list(WIDE))
def test_a_long_chain_goes_through_every_construction(kind):
    # the constructions rebuild witnesses one frame per level, as admission
    # interns them, so they take what admission takes; past that, admission
    # refuses with a GseqaError, never a bare RecursionError
    assert _admitted(WIDE[kind](950))
    with pytest.raises(GseqaError):
        _admitted(WIDE[kind](985))


# ---------------------------------------------------------------------------
# dovetailing


class TestDovetail:
    def test_needs_a_source_table(self):
        m = compile_tm(WRITER)
        with pytest.raises(Unsupported, match="table"):
            dovetail(compose(m, m))

    def test_collects_halting_candidates_at_the_limit(self):
        vm = check_machine(dovetail(compile_tm(EVEN_HALTING)))
        budget = Budget(maxSuccessorStepsPerSegment=800, maxLimitJumps=2)
        trace = run(vm, OrdinalSet.finite(set()), budget)
        assert isinstance(trace.outcome, Terminated)
        assert trace.final_stamp == OMEGA.add(OrdinalNotation.from_int(1))
        out = unload(trace.outcome.finalState)
        assert out.kind == "finite"
        for beta in range(8):
            halts = halting_steps(EVEN_HALTING, {beta}, cap=100) is not None
            assert (beta in out.elements) == halts

    def test_round_counter_certified_unbounded(self):
        vm = check_machine(dovetail(compile_tm(EVEN_HALTING)))
        budget = Budget(maxSuccessorStepsPerSegment=800, maxLimitJumps=2)
        trace = run(vm, OrdinalSet.finite(set()), budget)
        cell = trace.limitRecords[0].cell("c0")
        assert (cell.kind, cell.value, cell.verified) == ("Unbounded", 0, True)

    def test_never_reaches_the_dead_case(self):
        vm = check_machine(dovetail(compile_tm(EVEN_HALTING)))
        budget = Budget(
            maxSuccessorStepsPerSegment=400, maxLimitJumps=2, snapshotPolicy="all"
        )
        trace = run(vm, OrdinalSet.finite({1}), budget)
        for _, state in trace.snapshots:
            assert not (state.constant("c0") != 0 and state.constant("d") == 0)
