"""Machine file parsing, printing, and the identity between them."""

import re

import pytest

from gseqa.alpharef import parse_alpha_program, simulate_alpha_as_gseqap
from gseqa.errors import ArityMismatch, MachineInvalid, ParseError
from gseqa.ordinals import OrdinalSet, parse_ordinal
from gseqa.runtime import Budget, Terminated, run
from gseqa.specfiles import format_machine, parse_machine
from gseqa.transforms import compile_tm, compose, dovetail, flip, lift, parse_tm
from gseqa.validator import check_machine

TABLE = parse_tm(
    """
    states: q0 q1 q2
    initial: q0
    final: q2
    (q0, 0) -> (q1, 0, R)
    (q0, 1) -> (q2, 1, R)
    (q1, 0) -> (q0, 0, R)
    (q1, 1) -> (q1, 1, R)
    """
)

HANDWRITTEN = """\
# copies the input to the output one stage after boot
kappa: w
flavor: gseqa
signature:
  h: Constant
default {
  h: x = 0
}
tau {
  In: In(x)
  Out: In(x) & (exists y. (y < h))
  h: x = 1
}
"""


@pytest.fixture(scope="module")
def compiled():
    return compile_tm(TABLE)


class TestRoundTrip:
    def test_compiled_machine(self, compiled):
        assert parse_machine(format_machine(compiled)) == compiled

    def test_each_construction(self, compiled):
        for spec in (
            flip(compiled),
            compose(compiled, compiled),
            dovetail(compiled),
            lift(compiled, parse_ordinal("w*2")),
        ):
            assert parse_machine(format_machine(spec)) == spec

    def test_pinned_parameters(self):
        prog = parse_alpha_program(
            "states: s m z\ninitial: s\nfinal: z\nparams: 2\n"
            "(s,0) -> jump(0, m)\n(s,1) -> jump(0, m)\n"
            "(m,0) -> (z,1,R)\n(m,1) -> (z,1,R)\n"
        )
        spec = simulate_alpha_as_gseqap(prog)
        again = parse_machine(format_machine(spec))
        assert again == spec
        assert again.params == spec.params

    def test_reparsed_machine_still_validates(self, compiled):
        check_machine(parse_machine(format_machine(compiled)))


class TestHandwritten:
    def test_parses_validates_and_runs(self):
        vm = check_machine(parse_machine(HANDWRITTEN))
        trace = run(vm, OrdinalSet.finite({2, 5}), Budget(50, 1))
        assert isinstance(trace.outcome, Terminated)
        assert trace.outcome.output == OrdinalSet.finite({2, 5})

    def test_a_witness_in_150_parentheses_is_admitted_and_runs(self):
        deep = "(" * 150 + "In(x)" + ")" * 150
        vm = check_machine(parse_machine(HANDWRITTEN.replace("In: In(x)", f"In: {deep}")))
        trace = run(vm, OrdinalSet.finite({2, 5}), Budget(50, 1))
        assert isinstance(trace.outcome, Terminated)
        assert trace.outcome.output == OrdinalSet.finite({2, 5})

    def test_comments_and_blank_lines_are_free(self):
        assert parse_machine("# leading\n\n" + HANDWRITTEN) == parse_machine(HANDWRITTEN)


class TestRejections:
    def test_unknown_section(self):
        with pytest.raises(ParseError, match="unknown section 'colour'"):
            parse_machine("colour: blue\n" + HANDWRITTEN)

    def test_unknown_brace_section(self):
        with pytest.raises(ParseError, match="unknown section"):
            parse_machine(HANDWRITTEN + "extra {\n}\n")

    def test_missing_kappa(self):
        text = "\n".join(l for l in HANDWRITTEN.splitlines() if not l.startswith("kappa"))
        with pytest.raises(ParseError, match="missing its kappa"):
            parse_machine(text)

    def test_bad_flavor(self):
        with pytest.raises(ParseError, match="flavor"):
            parse_machine(HANDWRITTEN.replace("flavor: gseqa", "flavor: vanilla"))

    def test_unterminated_brace(self):
        with pytest.raises(ParseError, match="unterminated tau"):
            parse_machine(HANDWRITTEN.rstrip().rstrip("}"))

    def test_witness_for_undeclared_symbol(self):
        with pytest.raises(ParseError, match="undeclared symbol 'g'"):
            parse_machine(HANDWRITTEN.replace("h: x = 1", "h: x = 1\n  g: x = 0"))

    def test_duplicate_witness(self):
        with pytest.raises(ParseError, match="duplicate tau"):
            parse_machine(HANDWRITTEN.replace("h: x = 1", "h: x = 1\n  h: x = 0"))

    def test_formula_errors_carry_the_line(self):
        with pytest.raises(ParseError, match="line 11"):
            parse_machine(HANDWRITTEN.replace("Out: In(x) & (exists y. (y < h))", "Out: In(x) &"))

    def test_arity_errors_carry_the_line_and_keep_their_type(self):
        text = HANDWRITTEN.replace("  h: Constant\n", "  h: Constant\n  R: Relation/1\n")
        text = text.replace("Out: In(x) & (exists y. (y < h))", "Out: R(x, x)")
        with pytest.raises(ArityMismatch, match=r"^line 12 \(Out\): R expects 1"):
            parse_machine(text)

    @pytest.mark.parametrize(
        "deep",
        ["(" * 3000 + "In(x)" + ")" * 3000, "~" * 3000 + "In(x)"],
        ids=["3000 parentheses", "3000 negations"],
    )
    def test_deep_nesting_carries_the_line(self, deep):
        with pytest.raises(ParseError, match=r"^line 10 \(In\): formula is nested too deeply"):
            parse_machine(HANDWRITTEN.replace("In: In(x)", f"In: {deep}"))

    def test_a_function_declaration_names_its_line(self):
        # a function is written as its graph relation, one place wider
        text = HANDWRITTEN.replace("  h: Constant\n", "  h: Constant\n  f: Function/1\n")
        message = "line 6: symbol kind must be one of ('Relation', 'Constant')"
        with pytest.raises(ParseError, match=rf"^{re.escape(message)}$"):
            parse_machine(text)

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("params:\n  c = 0\n  c = 3\n", "line 8: duplicate parameter 'c'"),
            ("params:\n  = 5\n", "line 7: expected 'name = ordinal'"),
            ("  h: Relation/1\n", "line 6: cannot redeclare 'h'"),
        ],
        ids=["repeated parameter", "parameter without a name", "conflicting redeclaration"],
    )
    def test_a_bad_listing_entry_names_its_line(self, extra, message):
        text = HANDWRITTEN.replace("  h: Constant\n", "  h: Constant\n" + extra)
        with pytest.raises(ParseError, match=rf"^{re.escape(message)}$"):
            parse_machine(text)

    @pytest.mark.parametrize(
        "again, message",
        [
            ("kappa: 5\n", "line 4: second 'kappa:' line"),
            ("flavor: gseqap\n", "line 4: second 'flavor:' line"),
        ],
        ids=["kappa", "flavor"],
    )
    def test_a_repeated_header_line_names_its_line(self, again, message):
        # the later line used to replace the first without a word
        text = HANDWRITTEN.replace("signature:\n", again + "signature:\n")
        with pytest.raises(ParseError, match=rf"^{re.escape(message)}$"):
            parse_machine(text)

    @pytest.mark.parametrize(
        "entry, name",
        [("a b: Relation/1", "a b"), ("12: Constant", "12")],
        ids=["a name with a space", "a number"],
    )
    def test_a_symbol_that_no_formula_can_name_is_refused_on_its_line(self, entry, name):
        # a machine with 'a b' was admitted, and its states printed as
        # 'unary: ... a b={}', which parse_state refused
        text = HANDWRITTEN.replace("  h: Constant\n", f"  h: Constant\n  {entry}\n")
        with pytest.raises(ParseError, match=rf"^line 6: '{name}' is not a name"):
            parse_machine(text)

    def test_an_equal_redeclaration_is_accepted(self):
        again = HANDWRITTEN.replace("  h: Constant\n", "  h: Constant\n  h: Constant\n")
        assert parse_machine(again) == parse_machine(HANDWRITTEN)

    def test_indented_line_outside_any_section(self):
        with pytest.raises(ParseError, match="outside a section"):
            parse_machine("  h: Constant\n" + HANDWRITTEN)

    def test_staged_copy_marks_parse_but_fail_validation(self):
        # A witness peeking at the next stage is a file-level way to
        # write an unbounded transition; the validator owns the verdict.
        text = HANDWRITTEN.replace("Out: In(x) & (exists y. (y < h))", "Out: Out@1(x)")
        spec = parse_machine(text)
        with pytest.raises(MachineInvalid, match="Out"):
            check_machine(spec)
