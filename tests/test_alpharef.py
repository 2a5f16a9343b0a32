"""Reference simulator behaviour and its agreement with the compiled bridge."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gseqa.alpharef import (
    Halted,
    NotHalted,
    code_sets,
    decode_sets,
    parse_alpha_program,
    run_alpha_machine,
    simulate_alpha_as_gseqap,
)
from gseqa.errors import ParseError, Unsupported
from gseqa.ordinals import OrdinalNotation, OrdinalSet, godel_pair
from gseqa.runtime import Budget, Terminated, run
from gseqa.transforms import dovetail, format_tm
from gseqa.validator import GSEQA, check_machine
from tm_tools import generated_halting_tms, simulate_tm

BUDGET = Budget(maxSuccessorStepsPerSegment=150, maxLimitJumps=1)

# Walks right alternating between two states; a mark at an even offset
# halts with the mark kept, a mark at an odd offset runs away rightward.
PARITY = parse_alpha_program(
    """
    states: even odd loop done
    initial: even
    final: done
    (even, 0) -> (odd, 0, R)
    (even, 1) -> (done, 1, R)
    (odd, 0) -> (even, 0, R)
    (odd, 1) -> (loop, 1, R)
    (loop, 0) -> (loop, 0, R)
    (loop, 1) -> (loop, 1, R)
    """
)

RUNNER = parse_alpha_program(
    """
    states: go stop
    initial: go
    final: stop
    (go, 0) -> (go, 0, R)
    (go, 1) -> (go, 1, R)
    """
)

# Steps to position 3 and asks the oracle about it.
ASK3 = parse_alpha_program(
    """
    states: s0 s1 s2 s3 yes no done
    initial: s0
    final: done
    (s0, 0) -> (s1, 0, R)
    (s0, 1) -> (s1, 1, R)
    (s1, 0) -> (s2, 0, R)
    (s1, 1) -> (s2, 1, R)
    (s2, 0) -> (s3, 0, R)
    (s2, 1) -> (s3, 1, R)
    (s3, 0) -> oracle-read(yes, no)
    (s3, 1) -> oracle-read(yes, no)
    (yes, 0) -> (done, 1, R)
    (yes, 1) -> (done, 1, R)
    (no, 0) -> (no, 0, R)
    (no, 1) -> (no, 1, R)
    """
)

# Warps to parameter 0 and stamps it, whatever the input was.
STAMPER = parse_alpha_program(
    """
    states: start mark done
    initial: start
    final: done
    params: 0
    (start, 0) -> jump(0, mark)
    (start, 1) -> jump(0, mark)
    (mark, 0) -> (done, 1, R)
    (mark, 1) -> (done, 1, R)
    """
)


def members(s: OrdinalSet) -> set[int]:
    assert s.is_finite
    return set(s.elements)


class TestCoding:
    def test_components_interleave_disjointly(self):
        coded = code_sets({0, 1, 2}, {0, 1, 2})
        assert len(members(coded)) == 6

    @given(
        st.sets(st.integers(min_value=0, max_value=40), max_size=6),
        st.sets(st.integers(min_value=0, max_value=40), max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, tape, oracle):
        x, o = decode_sets(code_sets(tape, oracle))
        assert set(x) == tape and set(o) == oracle

    def test_codes_outside_both_components_are_ignored(self):
        # 4 codes the pair (0, 2), which is neither a tape nor an
        # oracle mark, so it contributes nothing.
        x, o = decode_sets(OrdinalSet.finite({4}))
        assert x == frozenset() and o == frozenset()

    def test_cofinite_input_rejected(self):
        with pytest.raises(Unsupported):
            decode_sets(OrdinalSet.cofinite({1}))


class TestSimulator:
    def test_parity_accepts_even_mark(self):
        out = run_alpha_machine(PARITY, code_sets({4}, ()))
        assert isinstance(out, Halted)
        assert members(out.output) == {4}
        assert out.clock == OrdinalNotation.from_int(5)

    def test_parity_rejects_odd_mark_by_divergence(self):
        out = run_alpha_machine(PARITY, code_sets({3}, ()), budget=500)
        assert out == NotHalted(500)

    def test_runner_never_halts(self):
        out = run_alpha_machine(RUNNER, code_sets({0}, ()), budget=1000)
        assert isinstance(out, NotHalted)

    def test_oracle_read_hit_and_miss(self):
        hit = run_alpha_machine(ASK3, code_sets((), {3}))
        assert isinstance(hit, Halted)
        assert members(hit.output) == {3}  # accept stamped where the head sat
        miss = run_alpha_machine(ASK3, code_sets((), ()), budget=300)
        assert isinstance(miss, NotHalted)

    def test_jump_uses_the_parameter(self):
        out = run_alpha_machine(STAMPER, code_sets({5}, ()))
        assert isinstance(out, Halted)
        assert members(out.output) == {0, 5}

    def test_agrees_with_plain_simulator_on_oracle_free_programs(self):
        for t in generated_halting_tms():
            for k in range(16):
                halted, tape = simulate_tm(t, {k})
                out = run_alpha_machine(t, code_sets({k}, ()), budget=2000)
                assert isinstance(out, Halted) == halted
                if halted:
                    assert members(out.output) == tape


class TestProgramText:
    def test_round_trips(self):
        for prog in (PARITY, RUNNER, ASK3, STAMPER):
            assert parse_alpha_program(format_tm(prog)) == prog

    def test_markers_renumber(self):
        prog = parse_alpha_program(
            """
            states: done go
            initial: go
            final: done
            (go, 0) -> (done, 0, R)
            (go, 1) -> (done, 1, R)
            """
        )
        assert prog.states == ("go", "done")

    def test_unknown_row_reports_line(self):
        text = "states: a z\ninitial: a\nfinal: z\n(a, 0) -> flip(z)\n(a, 1) -> (z, 1, R)\n"
        with pytest.raises(ParseError, match="line 4"):
            parse_alpha_program(text)

    def test_unknown_state_rejected(self):
        text = "states: a z\ninitial: a\nfinal: z\n(a, 0) -> (b, 0, R)\n(a, 1) -> (z, 1, R)\n"
        with pytest.raises(ParseError, match="unknown state 'b'"):
            parse_alpha_program(text)

    def test_jump_without_parameters_rejected(self):
        text = "states: a z\ninitial: a\nfinal: z\n(a, 0) -> jump(0, z)\n(a, 1) -> (z, 1, R)\n"
        with pytest.raises(ParseError, match="parameter"):
            parse_alpha_program(text)

    def test_incomplete_table_rejected(self):
        text = "states: a z\ninitial: a\nfinal: z\n(a, 0) -> (z, 0, R)\n"
        with pytest.raises(ParseError, match="no rule"):
            parse_alpha_program(text)


class TestBridge:
    def crosscheck(self, prog, coded, budget=BUDGET):
        vm = check_machine(simulate_alpha_as_gseqap(prog))
        ora = run_alpha_machine(prog, coded, budget=400)
        res = run(vm, coded, budget)
        bridged = isinstance(res.outcome, Terminated) and res.is_short(vm.spec.kappa)
        assert isinstance(ora, Halted) == bridged
        if isinstance(ora, Halted):
            assert res.outcome.output == ora.output
        return ora

    def test_parameters_port_wholesale(self):
        sim = simulate_alpha_as_gseqap(STAMPER)
        assert sim.params == {"p0": OrdinalNotation.from_int(0)}
        assert sim.flavor == "gseqap"

    def test_parameter_free_bridge_is_also_a_plain_machine(self):
        sim = simulate_alpha_as_gseqap(PARITY)
        assert sim.params == {}
        check_machine(dataclasses.replace(sim, flavor=GSEQA))

    def test_parity_bridge_agrees_on_singletons(self):
        for k in range(13):
            self.crosscheck(PARITY, OrdinalSet.finite({k}))

    def test_parity_bridge_agrees_on_sampled_sets(self):
        import random

        rng = random.Random(1905)
        for _ in range(24):
            coded = OrdinalSet.finite(
                {k for k in range(12) if rng.random() < 0.4}
            )
            self.crosscheck(PARITY, coded)

    def test_oracle_bridge_agrees(self):
        # 13 codes the oracle mark 3, the one ASK3 asks about.
        assert godel_pair(3, 1) == 13
        for coded in (
            OrdinalSet.finite({13}),
            OrdinalSet.finite(),
            OrdinalSet.finite({0, 13}),
            OrdinalSet.finite({2, 7}),
        ):
            self.crosscheck(ASK3, coded)

    def test_jump_bridge_agrees(self):
        for coded in (OrdinalSet.finite(), OrdinalSet.finite({0, 6}), OrdinalSet.finite({30})):
            self.crosscheck(STAMPER, coded)

    def test_bridge_cannot_be_dovetailed(self):
        # The bridge reads a coded (tape, oracle) input, not the plain
        # input a dovetailer feeds its table, so it carries no table.
        with pytest.raises(Unsupported, match="table"):
            dovetail(simulate_alpha_as_gseqap(PARITY))

    def test_divergent_run_is_not_short(self):
        vm = check_machine(simulate_alpha_as_gseqap(PARITY))
        res = run(vm, code_sets({3}, ()), BUDGET)
        assert not (isinstance(res.outcome, Terminated) and res.is_short(vm.spec.kappa))
