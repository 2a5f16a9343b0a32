"""Command line front end.

Four subcommands cover the file-level workflows: validate a machine
file, run one on an input set, build new machines from tables or other
machine files, and cross-check an ordinal-machine program against its
compiled bridge.  Exit codes are part of the interface: validate and
transform report 0/1, run reports 0 on termination, 2 on an exhausted
budget, and 1 otherwise, and crosscheck reports 3 on a disagreement.
run also prints to stderr each warning of the trace and each limit whose
record rests on unverified cells.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .alpharef import Halted, parse_alpha_program, run_alpha_machine, simulate_alpha_as_gseqap
from .errors import GseqaError, MachineInvalid, ParseError
from .ordinals import format_ordinal_set, parse_ordinal, parse_ordinal_set
from .runtime import Budget, OutOfBudget, Terminated, _outcome_line, dump_trace, run
from .specfiles import format_machine, parse_machine
from .states import format_state
from .transforms import compile_tm, compose, dovetail, flip, lift, parse_tm
from .validator import check_machine

__all__ = ["main", "cmd_validate", "cmd_run", "cmd_transform", "cmd_crosscheck"]


def _steps(budget: int) -> int:
    """Successor steps per segment, from --budget."""
    if budget <= 0:
        raise GseqaError(f"--budget must be a positive integer, got {budget}")
    return budget


def _load_machine(path: str, allow_finite: bool):
    with open(path, encoding="utf-8") as fh:
        spec = parse_machine(fh.read())
    return check_machine(spec, allow_finite_kappa=allow_finite)


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        vm = _load_machine(args.file, args.allow_finite_kappa)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except MachineInvalid as exc:
        for issue in exc.issues:
            print(issue, file=sys.stderr)
            if issue.state is not None:
                print("counterexample state:", file=sys.stderr)
                print(format_state(issue.state), file=sys.stderr)
        return 1
    spec = vm.spec
    extras = ", ".join(d.name for d in spec.sigma.extras()) or "none"
    print(f"valid {spec.flavor} machine over kappa {spec.kappa}; extra symbols: {extras}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    vm = _load_machine(args.file, args.allow_finite_kappa)
    A = parse_ordinal_set(args.input)
    if args.limit_jumps <= 0:
        raise GseqaError(f"--limit-jumps must be a positive integer, got {args.limit_jumps}")
    budget = Budget(
        maxSuccessorStepsPerSegment=_steps(args.budget),
        maxLimitJumps=args.limit_jumps,
    )
    trace = run(vm, A, budget, mode=args.mode)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(dump_trace(trace))
    for warning in trace.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for record in trace.limitRecords:
        if not record.verified:
            unverified = sum(not c.verified for c in record.cells)
            print(
                f"warning: the limit at {record.stamp} rests on "
                f"{unverified} unverified cell(s)",
                file=sys.stderr,
            )
    outcome = trace.outcome
    if isinstance(outcome, Terminated):
        print(f"terminated at {trace.final_stamp} (run length {trace.length})")
        print(f"output: {format_ordinal_set(outcome.output)}")
        return 0
    if isinstance(outcome, OutOfBudget):
        print(f"out of budget: {outcome.reason}", file=sys.stderr)
        return 2
    print(_outcome_line(outcome).replace("\t", ": ", 1), file=sys.stderr)
    return 1


def cmd_transform(args: argparse.Namespace) -> int:
    if args.kind in ("compile-tm", "dovetail"):
        with open(args.inputs[0], encoding="utf-8") as fh:
            table = parse_tm(fh.read())
        built = compile_tm(table)
        if args.kind == "dovetail":
            built = dovetail(built)
    elif args.kind == "compose":
        a = _load_machine(args.inputs[0], args.allow_finite_kappa)
        b = _load_machine(args.inputs[1], args.allow_finite_kappa)
        built = compose(a.spec, b.spec)
    elif args.kind == "flip":
        built = flip(_load_machine(args.inputs[0], args.allow_finite_kappa).spec)
    else:  # lift
        base = _load_machine(args.inputs[0], args.allow_finite_kappa)
        built = lift(base.spec, parse_ordinal(args.inputs[1]))
    check_machine(built, allow_finite_kappa=True)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(format_machine(built))
    print(f"wrote {args.output}: {built.flavor} machine over kappa {built.kappa}")
    return 0


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        bounds = [int(lo), int(hi)] if sep else [int(lo)]
        if min(bounds) < 0:
            raise ValueError
    except ValueError:
        raise GseqaError(f"--inputs wants N or A..B, got {text!r}")
    r = range(*bounds)
    if len(r) == 0:
        raise GseqaError(f"--inputs names an empty range: {text!r}")
    return r


def cmd_crosscheck(args: argparse.Namespace) -> int:
    with open(args.program, encoding="utf-8") as fh:
        prog = parse_alpha_program(fh.read())
    inputs = _parse_range(args.inputs)
    steps = _steps(args.budget)
    vm = check_machine(simulate_alpha_as_gseqap(prog))
    budget = Budget(maxSuccessorStepsPerSegment=steps, maxLimitJumps=1)
    disagreements = 0
    for k in inputs:
        coded = parse_ordinal_set(f"{{{k}}}")
        reference = run_alpha_machine(prog, coded, budget=steps)
        trace = run(vm, coded, budget)
        halted = isinstance(reference, Halted)
        bridged = isinstance(trace.outcome, Terminated) and trace.is_short(vm.spec.kappa)
        if halted != bridged or (halted and trace.outcome.output != reference.output):
            got = (
                format_ordinal_set(trace.outcome.output)
                if isinstance(trace.outcome, Terminated)
                else type(trace.outcome).__name__
            )
            want = format_ordinal_set(reference.output) if halted else "no halt"
            print(f"input {{{k}}}: DISAGREE (reference {want}, machine {got})")
            disagreements += 1
            continue
        verdict = f"halts with {format_ordinal_set(reference.output)}" if halted else "diverges"
        print(f"input {{{k}}}: agree, {verdict}")
    if disagreements:
        print(f"{disagreements} of {len(inputs)} inputs disagree", file=sys.stderr)
        return 3
    print(f"all {len(inputs)} inputs agree")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gseqa", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a machine file for well-formedness")
    p.add_argument("file")
    p.add_argument("--allow-finite-kappa", action="store_true",
                   help="admit finite universe bounds (surrogate mode)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run a machine file on an input set")
    p.add_argument("file")
    p.add_argument("--input", required=True, metavar="SET",
                   help="input set, e.g. '{1,4}' or 'co{0}'")
    p.add_argument("--budget", type=int, default=10_000, metavar="N",
                   help="successor steps per segment (default 10000)")
    p.add_argument("--limit-jumps", type=int, default=8, metavar="K")
    p.add_argument("--mode", choices=("full", "short"), default="full")
    p.add_argument("--trace", metavar="FILE", help="write a step trace here")
    p.add_argument("--allow-finite-kappa", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("transform", help="build a machine from tables or machine files")
    p.add_argument("kind", choices=("compile-tm", "compose", "flip", "dovetail", "lift"))
    p.add_argument("inputs", nargs="+",
                   help="compile-tm/dovetail: TABLE; compose: A B; flip: A; lift: A KAPPA")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--allow-finite-kappa", action="store_true")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("crosscheck", help="compare a program with its compiled bridge")
    p.add_argument("program", help="ordinal-machine program file")
    p.add_argument("--inputs", required=True, metavar="RANGE",
                   help="singleton inputs {k} for k in N or A..B")
    p.add_argument("--budget", type=int, default=10_000, metavar="N")
    p.set_defaults(func=cmd_crosscheck)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    arity = {"compile-tm": 1, "compose": 2, "flip": 1, "dovetail": 1, "lift": 2}
    if args.command == "transform" and len(args.inputs) != arity[args.kind]:
        print(f"error: {args.kind} takes {arity[args.kind]} input argument(s)", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (GseqaError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
