"""The four workloads: set-up (parse, build, admit) and one round of work.

A round is a fixed list of operations, the same every time for a given
seed. Each operation is one verdict: a machine/input pair with its
reference check, or one sentence/state pair in the differential. Every
gseqa call goes through a module attribute, so the tracer's wrappers are
the functions called.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import random
from pathlib import Path

import gseqa.alpharef as alpharef
import gseqa.logic as logic
import gseqa.runtime as runtime
import gseqa.satisfaction as satisfaction
import gseqa.specfiles as specfiles
import gseqa.states as states
import gseqa.transforms as transforms
import gseqa.validator as validator
from gseqa.ordinals import OMEGA, OrdinalNotation, OrdinalSet

import generate
import reference
from clock import Clock

INPUTS = Path(__file__).resolve().parent / "inputs"

# Bridge: criterion 9's programs and singleton inputs {0..12}, with a
# smaller per-segment budget than its 200 so that a round fits twice
# into one run. Every run that does not halt reaches its first limit;
# at this budget some of those limits stay unresolved, which the
# reference's not-halted verdict matches as criterion 9 requires.
BRIDGE_PROGRAMS = ("parity.apg", "ask3.apg")
BRIDGE_INPUTS = range(13)
BRIDGE_BUDGET = 48

# Dovetail: successor steps before the first limit. Enough rounds of the
# dovetailer to settle every candidate below DOVETAIL_MIN_CHECKED.
DOVETAIL_STEPS = 600
DOVETAIL_MIN_CHECKED = 10

# Constructions: the budgets of criteria 2-5.
TABLE_BUDGET = runtime.Budget(maxSuccessorStepsPerSegment=1400, maxLimitJumps=1)
COMPOSE_BUDGET = runtime.Budget(maxSuccessorStepsPerSegment=2800, maxLimitJumps=1)
LIFT_BUDGET = runtime.Budget(maxSuccessorStepsPerSegment=200, maxLimitJumps=1)

# Differential: sentence/state pairs per round, surrogate sizes per pair.
DIFF_PAIRS = 1000
DIFF_SIZES = 9
DIFF_SIGMA = logic.Signature([
    logic.SymbolDecl("h", "Constant"),
    logic.SymbolDecl("t", "Constant"),
    logic.SymbolDecl("R", "Relation", 1),
    logic.SymbolDecl("E", "Relation", 2),
])


@dataclasses.dataclass
class Round:
    """What one round did: verdict times, failures and exact counts."""

    clock: Clock
    intervals: list = dataclasses.field(default_factory=list)  # (start, end) per operation
    failures: list = dataclasses.field(default_factory=list)
    failed: int = 0  # operations with a failure, plus failed checks on the whole round
    _in_op: bool = dataclasses.field(default=False, init=False, repr=False)
    steps: int = 0
    events: int = 0
    trace_bytes: int = 0
    limit_cells: int = 0
    verified_cells: int = 0
    support_max: int = 0
    digest: object = dataclasses.field(default_factory=hashlib.sha256)

    def counts(self) -> dict:
        return {
            "runtime.steps": self.steps,
            "runtime.events": self.events,
            "runtime.trace_bytes": self.trace_bytes,
            "runtime.limit_cells": self.limit_cells,
            "runtime.verified_cells": self.verified_cells,
            "trace_sha256": self.digest.hexdigest(),
        }

    def record_run(self, trace: runtime.RunTrace) -> None:
        """Count the stages, events and limit cells of a run and dump its trace."""
        text = runtime.dump_trace(trace)
        self.digest.update(text.encode())
        self.trace_bytes += len(text.encode())
        self.events += len(trace.events)
        # every successor stage changes the state, so it has an event
        self.steps += len({e.stamp for e in trace.events if not e.stamp.is_limit})
        self.steps += len({stamp for stamp, _ in trace.snapshots if stamp.is_limit})
        for record in trace.limitRecords:
            self.limit_cells += len(record.cells)
            self.verified_cells += sum(c.verified for c in record.cells)
        self.support_max = max(self.support_max, *(s.support_bound() for _, s in trace.snapshots))

    def check(self, label: str, ok: bool) -> None:
        """Record a failed check; outside an operation it counts as one failure."""
        if not ok:
            self.failures.append(label)
            if not self._in_op:
                self.failed += 1

    @contextlib.contextmanager
    def op(self, label: str):
        """Time one operation; one that raises or fails a check counts as failed."""
        before = len(self.failures)
        self._in_op = True
        start = self.clock.now()
        try:
            yield
        except Exception as exc:  # a raising operation is a failed one
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
        self.intervals.append((start, self.clock.now()))
        self._in_op = False
        self.failed += len(self.failures) > before


def singleton(k: int) -> OrdinalSet:
    return OrdinalSet.finite({k})


def _read(name: str) -> str:
    return (INPUTS / name).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# bridge


class Bridge:
    """Oracle-machine programs against their compiled GSeqAP machines."""

    def __init__(self, seed: int):
        self.texts = [(name, _read(name)) for name in BRIDGE_PROGRAMS]
        pairs = [(i, k) for i in range(len(self.texts)) for k in BRIDGE_INPUTS]
        random.Random(seed).shuffle(pairs)
        self.pairs = pairs

    def setup(self):
        built = []
        for _, text in self.texts:
            prog = alpharef.parse_alpha_program(text)
            built.append((prog, validator.check_machine(alpharef.simulate_alpha_as_gseqap(prog))))
        return built

    def round(self, built, out: Round) -> None:
        budget = runtime.Budget(maxSuccessorStepsPerSegment=BRIDGE_BUDGET, maxLimitJumps=1)
        for i, k in self.pairs:
            prog, vm = built[i]
            label = f"{self.texts[i][0]} on {{{k}}}"
            with out.op(label):
                ref = alpharef.run_alpha_machine(prog, singleton(k), budget=BRIDGE_BUDGET)
                trace = runtime.run(vm, singleton(k), budget)
                out.record_run(trace)
                halted = isinstance(ref, alpharef.Halted)
                bridged = trace.is_short(vm.kappa)
                out.check(label, halted == bridged and (not halted or trace.outcome.output == ref.output))


# ---------------------------------------------------------------------------
# dovetail


class Dovetail:
    """The dovetailed even-halting table, from the empty input to w+1."""

    def __init__(self, seed: int):
        self.text = _read("even_halting.tm")
        table = reference.read_table(self.text)
        rounds = reference.dovetail_rounds(table, DOVETAIL_STEPS)
        # candidates below `rounds` were all tried for `rounds` steps
        self.checked = range(rounds)
        if rounds < DOVETAIL_MIN_CHECKED:
            raise ValueError(f"{DOVETAIL_STEPS} steps settle only {rounds} candidates")
        self.halts = {b: reference.simulate(table, {b}, rounds)[0] is not None for b in self.checked}
        # the unfinished round tries candidates up to rounds + 1 at most
        self.ever = {b for b in range(rounds + 2)
                     if reference.simulate(table, {b}, DOVETAIL_STEPS)[0] is not None}

    def setup(self):
        table = transforms.parse_tm(self.text)
        return validator.check_machine(transforms.dovetail(transforms.compile_tm(table)))

    def round(self, vm, out: Round) -> None:
        budget = runtime.Budget(DOVETAIL_STEPS, 2, snapshotPolicy="all")
        with out.op("dovetail"):
            trace = runtime.run(vm, OrdinalSet.finite(), budget)
            out.record_run(trace)
            out.check("terminates", isinstance(trace.outcome, runtime.Terminated))
            out.check("stops at w+1", trace.final_stamp == OMEGA.add(OrdinalNotation.from_int(1)))
            out.check("dead guard unreachable", all(
                not (s.constant("c0") != 0 and s.constant("d") == 0) for _, s in trace.snapshots))
            cell = trace.limitRecords[0].cell("c0")
            out.check("c0 certified Unbounded", (cell.kind, cell.value, cell.verified) == ("Unbounded", 0, True))
            found = trace.outcome.output.elements
            out.check("halting set below the settled range",
                      all((b in found) == self.halts[b] for b in self.checked))
            out.check("only halting candidates", set(found) <= self.ever)


# ---------------------------------------------------------------------------
# constructions


class Constructions:
    """Compiled tables, compose, flip and a lift, built from text.

    Double flip (criterion 4) is left out: at this speed its admission
    alone takes about 12 s and its 16 runs about 23 s.
    """

    def __init__(self, seed: int):
        self.tables = generate.halting_corpus(seed)
        self.texts = [t.text() for t in self.tables]
        self.writer_text = _read("writer.tm")
        self.writer = reference.read_table(self.writer_text)
        self.order = list(range(64))
        random.Random(seed).shuffle(self.order)

    def setup(self):
        specs = [transforms.compile_tm(transforms.parse_tm(text)) for text in self.texts]
        w6 = dataclasses.replace(
            transforms.compile_tm(transforms.parse_tm(self.writer_text)),
            kappa=OrdinalNotation.from_int(6),
        )
        built = {
            "table0": specs[0], "table1": specs[1], "table2": specs[2], "table3": specs[3],
            "compose01": transforms.compose(specs[0], specs[1]),
            "flip2": transforms.flip(specs[2]),
            "flip3": transforms.flip(specs[3]),
            "writer6": w6,
            "writer12": transforms.lift(w6, 12),
        }
        return {
            name: validator.check_machine(
                specfiles.parse_machine(specfiles.format_machine(spec)),
                allow_finite_kappa=name.startswith("writer"),
            )
            for name, spec in built.items()
        }

    def _expected(self, name: str, k: int) -> OrdinalSet:
        t = self.tables
        if name == "compose01":
            tape = reference.simulate(t[1], reference.simulate(t[0], {k}, generate.CAP)[1], generate.CAP)[1]
        else:
            tape = reference.simulate(t[int(name[-1])], {k}, generate.CAP)[1]
        return OrdinalSet.cofinite(tape) if name.startswith("flip") else OrdinalSet.finite(tape)

    def round(self, vms, out: Round) -> None:
        for name in ("table0", "table1", "table2", "table3", "compose01", "flip2", "flip3"):
            budget = COMPOSE_BUDGET if name == "compose01" else TABLE_BUDGET
            for k in generate.INPUTS:
                label = f"{name} on {{{k}}}"
                with out.op(label):
                    trace = runtime.run(vms[name], singleton(k), budget)
                    out.record_run(trace)
                    out.check(label, trace.is_short(OMEGA)
                              and runtime.unload(trace.outcome.finalState) == self._expected(name, k))
        growth = set()
        for bits in self.order:
            tape = {i for i in range(6) if bits >> i & 1}
            label = f"lifted writer on {sorted(tape)}"
            with out.op(label):
                small = runtime.run(vms["writer6"], OrdinalSet.finite(tape), LIFT_BUDGET)
                large = runtime.run(vms["writer12"], OrdinalSet.finite(tape), LIFT_BUDGET)
                out.record_run(small)
                out.record_run(large)
                want = OrdinalSet.finite(reference.simulate(self.writer, tape, 10)[1])
                out.check(label, all(
                    isinstance(r.outcome, runtime.Terminated) and runtime.unload(r.outcome.finalState) == want
                    for r in (small, large)) and all(x < 6 for x in want.elements))
                growth.add(large.final_stamp.to_int() - small.final_stamp.to_int())
        out.check(f"lift run-length growth {sorted(growth)} is one constant below 10",
                  len(growth) == 1 and max(growth) < 10)


# ---------------------------------------------------------------------------
# differential


class Differential:
    """Seeded rank-3 sentences at w against nine surrogate sizes."""

    def __init__(self, seed: int):
        self.pairs = generate.sentence_pairs(seed, DIFF_PAIRS)

    def setup(self):
        return [
            (logic.parse_formula(text, DIFF_SIGMA, doubled=len(sts) == 2),
             tuple(states.parse_state(s) for s in sts))
            for text, sts in self.pairs
        ]

    def round(self, parsed, out: Round) -> None:
        omega = satisfaction.EvalDomain.omega()
        for i, (f, sts) in enumerate(parsed):
            with out.op(f"pair {i}"):
                b = satisfaction.threshold_bound(f, *sts)
                if len(sts) == 1:
                    verdicts = [satisfaction.sat(f, sts[0], d) for d in _domains(omega, b)]
                else:
                    verdicts = [satisfaction.sat2(f, sts, d) for d in _domains(omega, b)]
                out.steps += len(verdicts)
                out.digest.update(bytes(verdicts))
                out.check(f"pair {i}: w and surrogates disagree", len(set(verdicts)) == 1)
            out.support_max = max(out.support_max, *(s.support_bound() for s in sts))


def _domains(omega, b: int):
    yield omega
    for n in range(b, b + DIFF_SIZES):
        yield satisfaction.EvalDomain.surrogate(n)


WORKLOADS = {
    "bridge": Bridge,
    "dovetail": Dovetail,
    "constructions": Constructions,
    "differential": Differential,
}
