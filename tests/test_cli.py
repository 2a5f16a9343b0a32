"""Exit codes and output of the command line front end."""

import subprocess
import sys
from pathlib import Path

import pytest

import gseqa
from gseqa.cli import main
from gseqa.logic import Signature, SymbolDecl, parse_formula
from gseqa.ordinals import OMEGA
from gseqa.specfiles import format_machine
from gseqa.states import parse_state
from gseqa.validator import GSEQA, MachineSpec

EVEN_TM = """\
states: q0 q1 q2
initial: q0
final: q2
(q0, 0) -> (q1, 0, R)
(q0, 1) -> (q2, 1, R)
(q1, 0) -> (q0, 0, R)
(q1, 1) -> (q1, 1, R)
"""

PARITY_APG = """\
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


@pytest.fixture()
def table(tmp_path):
    path = tmp_path / "even.tm"
    path.write_text(EVEN_TM)
    return path


@pytest.fixture()
def machine(tmp_path, table):
    path = tmp_path / "even.gsa"
    assert main(["transform", "compile-tm", str(table), "-o", str(path)]) == 0
    return path


@pytest.fixture()
def program(tmp_path):
    path = tmp_path / "parity.apg"
    path.write_text(PARITY_APG)
    return path


class TestValidate:
    def test_valid_file(self, machine, capsys):
        assert main(["validate", str(machine)]) == 0
        out = capsys.readouterr().out
        assert "valid gseqa machine over kappa w" in out

    def test_invalid_witness_lists_violations(self, tmp_path, machine, capsys):
        bad = tmp_path / "bad.gsa"
        bad.write_text(machine.read_text().replace("In: In(x)", "In: In@1(x)"))
        assert main(["validate", str(bad)]) == 1
        assert "In" in capsys.readouterr().err

    def test_sampled_counterexample_state_is_printed(self, tmp_path, machine, capsys):
        bad = tmp_path / "bad.gsa"
        bad.write_text(machine.read_text().replace("e: x = 1", "e: x = 1 | x = 2"))
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("D6Violation: symbol=e: witness defines a set of size 2")
        printed = err.split("counterexample state:\n", 1)[1]
        assert parse_state(printed).kappa == OMEGA

    def test_parse_error_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "typo.gsa"
        bad.write_text("kappa: w\nflavour: gseqa\n")
        assert main(["validate", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_deep_nesting_is_a_parse_error_on_its_line(self, tmp_path, machine, capsys):
        text = machine.read_text()
        lineno = text.splitlines().index("  In: In(x)") + 1
        deep = tmp_path / "deep.gsa"
        deep.write_text(text.replace("In: In(x)", "In: " + "(" * 3000 + "In(x)" + ")" * 3000))
        assert main(["validate", str(deep)]) == 1
        err = capsys.readouterr().err
        assert f"error: line {lineno} (In): formula is nested too deeply at position" in err

    def test_finite_kappa_needs_the_gate(self, tmp_path, machine, capsys):
        small = tmp_path / "small.gsa"
        small.write_text(machine.read_text().replace("kappa: w", "kappa: 6"))
        assert main(["validate", str(small)]) == 1
        assert main(["validate", str(small), "--allow-finite-kappa"]) == 0

    def test_unreadable_file_is_an_error(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.gsa")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope.gsa" in err
        binary = tmp_path / "binary.gsa"
        binary.write_bytes(b"kappa: \xff\n")
        assert main(["validate", str(binary)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestRun:
    def test_terminating_run(self, machine, capsys):
        code = main(["run", str(machine), "--input", "{4}", "--budget", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "terminated" in out
        assert "output: {4}" in out

    def test_budget_exhaustion(self, machine, capsys):
        code = main(
            ["run", str(machine), "--input", "{3}", "--budget", "120", "--limit-jumps", "1"]
        )
        assert code == 2
        assert "out of budget" in capsys.readouterr().err

    def test_short_mode_rejects_a_long_run(self, machine, capsys):
        code = main(
            ["run", str(machine), "--input", "{3}", "--budget", "120", "--mode", "short"]
        )
        assert code == 1

    def test_a_failed_run_prints_its_reason_as_the_trace_does(self, machine, capsys):
        code = main(
            ["run", str(machine), "--input", "{3}", "--budget", "120", "--mode", "short"]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "Failed: NotShort: the clock would reach w at the universe bound"

    def test_an_unresolved_limit_prints_the_limit_as_the_trace_does(self, tmp_path, capsys):
        # h walks down from 50 one step at a time, so 40 steps show no tail
        sigma = Signature([SymbolDecl("h", "Constant")])
        pred = "(in(x, h) & (forall y. (in(y, h) -> (y = x | in(y, x))))) | (h = 0 & x = 0)"
        tau = {"In": "In(x)", "Out": "Out(x)", "h": pred}
        spec = MachineSpec(
            kappa=OMEGA,
            sigma=sigma,
            flavor=GSEQA,
            tauWitnesses={k: parse_formula(v, sigma) for k, v in tau.items()},
            defaultWitnesses={"h": parse_formula("x = 50", sigma)},
        )
        path = tmp_path / "staircase.gsa"
        path.write_text(format_machine(spec))
        code = main(["run", str(path), "--input", "{}", "--budget", "40", "--limit-jumps", "2"])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == "LimitUnresolved: w"

    def test_trace_file(self, machine, tmp_path, capsys):
        out = tmp_path / "run.trace"
        code = main(
            ["run", str(machine), "--input", "{2}", "--budget", "200", "--trace", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("trace\t")
        assert "snapshot" in text

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.gsa"), "--input", "{1}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope.gsa" in err

    def test_warnings_and_unverified_limits_are_printed(self, tmp_path, capsys):
        # In flips forever, so a later limit repeats an earlier stage; h
        # climbs to 90 and stays there while g keeps climbing, so the
        # limit's value for h rests on a trailing window only.
        sigma = Signature([SymbolDecl("h", "Constant"), SymbolDecl("g", "Constant")])
        climb = "in({c}, x) & (forall y. (in(y, x) -> (in(y, {c}) | y = {c})))"
        tau = {
            "In": "~In(x)",
            "Out": "Out(x)",
            "h": f"(in(h, 90) & {climb.format(c='h')}) | (~in(h, 90) & x = h)",
            "g": climb.format(c="g"),
        }
        spec = MachineSpec(
            kappa=OMEGA,
            sigma=sigma,
            flavor=GSEQA,
            tauWitnesses={k: parse_formula(v, sigma) for k, v in tau.items()},
            defaultWitnesses={k: parse_formula("x = 0", sigma) for k in ("h", "g")},
        )
        path = tmp_path / "stall.gsa"
        path.write_text(format_machine(spec))
        code = main(
            ["run", str(path), "--input", "{1}", "--budget", "164", "--limit-jumps", "3"]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("warning: ") and "not injective" in line for line in err)
        assert "warning: the limit at w rests on 1 unverified cell(s)" in err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--budget", "-5"], "--budget"),
            (["--budget", "0"], "--budget"),
            (["--limit-jumps", "0"], "--limit-jumps"),
        ],
    )
    def test_bad_budget_is_an_error(self, machine, flags, named, capsys):
        assert main(["run", str(machine), "--input", "{2}", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} must be a positive integer")


class TestTransform:
    def test_every_kind_produces_a_valid_file(self, tmp_path, table, machine, capsys):
        jobs = [
            (["flip", str(machine)], "flip.gsa"),
            (["compose", str(machine), str(machine)], "twice.gsa"),
            (["lift", str(machine), "w*2"], "tall.gsa"),
            (["dovetail", str(table)], "dove.gsa"),
        ]
        for argv, name in jobs:
            out = tmp_path / name
            assert main(["transform", *argv, "-o", str(out)]) == 0
            assert main(["validate", str(out), "--allow-finite-kappa"]) == 0

    def test_flipped_machine_complements(self, tmp_path, machine, capsys):
        out = tmp_path / "flip.gsa"
        assert main(["transform", "flip", str(machine), "-o", str(out)]) == 0
        assert main(["run", str(out), "--input", "{4}", "--budget", "200"]) == 0
        assert "output: co{4}" in capsys.readouterr().out

    def test_wrong_arity_is_an_error(self, machine, tmp_path, capsys):
        code = main(["transform", "compose", str(machine), "-o", str(tmp_path / "x.gsa")])
        assert code == 1
        assert "2 input argument" in capsys.readouterr().err

    def test_compose_takes_a_witness_that_validates(self, tmp_path):
        # a left-deep chain of 599 conjunctions is admitted, so it composes
        sigma = Signature()
        tau = {"In": "In(x)", "Out": " & ".join(["In(x)"] * 600)}
        spec = MachineSpec(
            kappa=OMEGA,
            sigma=sigma,
            flavor=GSEQA,
            tauWitnesses={k: parse_formula(v, sigma) for k, v in tau.items()},
        )
        wide = tmp_path / "wide.gsa"
        wide.write_text(format_machine(spec))
        assert main(["validate", str(wide)]) == 0
        out = tmp_path / "twice.gsa"
        assert main(["transform", "compose", str(wide), str(wide), "-o", str(out)]) == 0

    def test_mismatched_bounds_fail_cleanly(self, tmp_path, machine, capsys):
        tall = tmp_path / "tall.gsa"
        assert main(["transform", "lift", str(machine), "w*2", "-o", str(tall)]) == 0
        code = main(["transform", "compose", str(machine), str(tall), "-o", str(tmp_path / "x.gsa")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestCrosscheck:
    def test_parity_program_agrees_everywhere(self, program, capsys):
        assert main(["crosscheck", str(program), "--inputs", "0..13", "--budget", "150"]) == 0
        out = capsys.readouterr().out
        assert out.count("agree") == 14  # 13 per-input lines plus the summary
        assert "halts with {0}" in out

    def test_starved_bridge_surfaces_as_disagreement(self, program, capsys):
        # The reference halts inside 3 steps but the compiled machine
        # still has decoding to do, so an extreme budget starves it and
        # the checker must say so rather than paper over it.
        assert main(["crosscheck", str(program), "--inputs", "1", "--budget", "3"]) == 3
        captured = capsys.readouterr()
        assert "DISAGREE" in captured.out
        assert "1 of 1 inputs disagree" in captured.err

    def test_bad_range_is_an_error(self, program, capsys):
        assert main(["crosscheck", str(program), "--inputs", "nope"]) == 1
        assert main(["crosscheck", str(program), "--inputs", "5..5"]) == 1

    def test_zero_budget_is_an_error(self, program, capsys):
        assert main(["crosscheck", str(program), "--inputs", "3", "--budget", "0"]) == 1
        assert "error: --budget must be a positive integer" in capsys.readouterr().err


def test_console_entry_point():
    # run from the directory that holds the imported package, so the
    # child finds the same gseqa without relying on PYTHONPATH
    proc = subprocess.run(
        [sys.executable, "-m", "gseqa.cli", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=Path(gseqa.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0
    for word in ("validate", "run", "transform", "crosscheck"):
        assert word in proc.stdout
