"""Transfinite execution of validated machines.

A run walks successor stages by the step kernel until the state either
reaches a fixed point (termination) or the segment ends, at which point
the clock jumps to the next limit ordinal and every cell takes the limit
inferior of its previous values, or 0 when that inferior would reach the
universe bound. Within a segment an exact state repetition proves the
tail periodic, making the limit computable outright; a segment that
exhausts its step budget first is classified cell by cell from the
recorded history instead, and each cell's record says whether the
classification was certified or merely extrapolated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

from .errors import GseqaError, Unrepresentable, Unsupported
from .ordinals import OrdinalNotation, OrdinalSet, ZERO, next_limit
from .states import State
from .validator import ValidatedMachine, apply_transition, domain_for

# How many trailing values the fallback classifier may trust when the
# full history shows no certified pattern.
WINDOW = 64

# A tail needs at least this many rises before the classifier will call
# it unbounded rather than drifting.
MIN_RISES = 8


# ---------------------------------------------------------------------------
# budgets, outcomes, trace records


@dataclass(frozen=True)
class Budget:
    """Caps on a single run.

    maxSuccessorStepsPerSegment bounds each stretch of successor stages,
    maxLimitJumps the number of limit crossings. snapshotPolicy is
    "boundary" (initial, every limit, final) or "all" (every stage).
    """

    maxSuccessorStepsPerSegment: int = 10_000
    maxLimitJumps: int = 8
    snapshotPolicy: str = "boundary"

    def __post_init__(self) -> None:
        if self.maxSuccessorStepsPerSegment <= 0 or self.maxLimitJumps <= 0:
            raise ValueError("budget bounds must be positive")
        if self.snapshotPolicy not in ("boundary", "all"):
            raise ValueError(f"unknown snapshot policy {self.snapshotPolicy!r}")


@dataclass(frozen=True)
class Terminated:
    finalState: State
    output: OrdinalSet


@dataclass(frozen=True)
class OutOfBudget:
    reason: str


@dataclass(frozen=True)
class LimitUnresolved:
    limit: OrdinalNotation


@dataclass(frozen=True)
class Failed:
    reason: str


Outcome = Union[Terminated, OutOfBudget, LimitUnresolved, Failed]


@dataclass(frozen=True)
class Event:
    """One cell changing value at a stage.

    cell is None for a constant symbol, an element for a unary relation,
    a tuple for a wider one, and the string "polarity" when a unary
    relation swapped between finite and cofinite representation (such a
    swap moves infinitely many cells at once, so it gets one record
    rather than one per cell).
    """

    stamp: OrdinalNotation
    symbol: str
    cell: object
    old: object
    new: object


@dataclass(frozen=True)
class TailClass:
    """Classification of one cell's value sequence below a limit."""

    kind: str  # Stable | Periodic | Unbounded | RecurrentMin | Unknown
    value: int | None
    verified: bool
    period: int | None = None


@dataclass(frozen=True)
class CellClass:
    symbol: str
    cell: object
    kind: str
    value: object
    verified: bool


@dataclass(frozen=True)
class LimitRecord:
    stamp: OrdinalNotation
    cells: tuple[CellClass, ...]
    verified: bool

    def cell(self, symbol: str, cell: object = None) -> CellClass:
        for c in self.cells:
            if c.symbol == symbol and c.cell == cell:
                return c
        raise KeyError(f"no record for {symbol!r} cell {cell!r}")


@dataclass
class RunTrace:
    machine: str
    input: OrdinalSet
    events: list[Event] = field(default_factory=list)
    snapshots: list[tuple[OrdinalNotation, State]] = field(default_factory=list)
    limitRecords: list[LimitRecord] = field(default_factory=list)
    outcome: Outcome | None = None
    warnings: list[str] = field(default_factory=list)

    @property
    def final_stamp(self) -> OrdinalNotation:
        return self.snapshots[-1][0]

    @property
    def length(self) -> OrdinalNotation:
        """Number of stages: one past the final stamp."""
        return self.final_stamp.succ()

    def is_short(self, kappa: OrdinalNotation) -> bool:
        return isinstance(self.outcome, Terminated) and self.final_stamp < kappa


# ---------------------------------------------------------------------------
# loading and unloading


def load(vm: ValidatedMachine, A: OrdinalSet) -> State:
    """The initial state for input A: the start state fixed at admission,
    with In = A."""
    if vm.kappa.is_finite:
        n = vm.kappa.to_int()
        if A.kind == "finite" and any(x >= n for x in A.elements):
            raise Unrepresentable(f"input reaches beyond the universe bound {n}")
    if vm.start is None:
        raise Unsupported(f"no evaluation domain for kappa = {vm.kappa}")
    return vm.start.with_updates(unary={"In": A})


def unload(state: State) -> OrdinalSet:
    return state.relation("Out")


# ---------------------------------------------------------------------------
# tail classification


def classify_tail(values: Sequence[int], *, period: int | None = None) -> TailClass:
    """Classify one cell's history below a limit stage.

    With a period the tail is a proven cycle and the limit inferior is
    the cycle minimum, exactly. Without one the history is a finite
    sample of an infinite tail, so the patterns accepted here are the
    ones whose continuation is being extrapolated; a cell is marked
    verified when the whole history fits the pattern with recurrence
    reaching the end, and unverified when only a trailing window does.
    """
    n = len(values)
    if n == 0:
        return TailClass("Unknown", None, False)
    if period is not None:
        if period <= 0 or period > n:
            raise ValueError("period must fit inside the history")
        cycle = list(values[n - period:])
        if all(v == cycle[0] for v in cycle):
            return TailClass("Stable", cycle[0], True)
        return TailClass("Periodic", min(cycle), True, period=period)

    first = values[0]
    if all(v == first for v in values):
        return TailClass("Stable", first, True)

    suffix_start = max(1, n // 4)
    suffix = values[suffix_start:]
    if suffix and all(v == suffix[0] for v in suffix):
        return TailClass("Stable", suffix[0], True)

    rises = [i for i in range(1, n) if values[i] > values[i - 1]]
    falls = any(values[i] < values[i - 1] for i in range(1, n))
    if not falls and len(rises) >= MIN_RISES:
        gaps = [b - a for a, b in zip(rises, rises[1:])]
        tail_gap = (n - 1) - rises[-1]
        if tail_gap <= 2 * max(gaps, default=1) + MIN_RISES:
            return TailClass("Unbounded", None, True)

    if suffix:
        low = min(suffix)
        hits = [suffix_start + i for i, v in enumerate(suffix) if v == low]
        if len(hits) >= 3:
            gaps = [b - a for a, b in zip(hits, hits[1:])]
            tail_gap = (n - 1) - hits[-1]
            # the minimum must keep recurring at its established rhythm
            # right up to the end, or the tail may have left it behind
            if max(gaps) <= n // 2 and tail_gap <= 2 * max(gaps) + 2:
                return TailClass("RecurrentMin", low, True)

    window = values[-WINDOW:]
    if all(v == window[0] for v in window):
        return TailClass("Stable", window[0], False)
    return TailClass("Unknown", None, False)


def _liminf_value(tc: TailClass) -> int | None:
    """The cell value installed at the limit, or None when unknown.

    An unbounded tail has no limit inferior below the universe bound, so
    the rule's fallback sends the cell to 0.
    """
    if tc.kind == "Unknown":
        return None
    if tc.kind == "Unbounded":
        return 0
    return tc.value


def limit_state(
    history: Sequence[State],
    gamma: OrdinalNotation,
    kappa: OrdinalNotation,
    *,
    period: int | None = None,
) -> tuple[State | None, LimitRecord]:
    """Pointwise limit inferior of a state history at limit stage gamma.

    Returns the limit state and the per-cell record; the state is None
    when some cell's tail resisted classification, which the caller
    reports as an unresolved limit.
    """
    if not history:
        raise ValueError("empty history at a limit stage")
    cells: list[CellClass] = []
    constants: dict[str, int] = {}
    unary: dict[str, OrdinalSet] = {}
    nary: dict[str, frozenset[tuple[int, ...]]] = {}
    unresolved = False

    for name in history[0].constant_map():
        seq = [s.constant(name) for s in history]
        tc = classify_tail(seq, period=period)
        value = _liminf_value(tc)
        cells.append(CellClass(name, None, tc.kind, value, tc.verified))
        if value is None:
            unresolved = True
        else:
            constants[name] = value

    for name in history[0].unary_map():
        sets = [s.relation(name) for s in history]
        value, symbol_cells, ok = _limit_set(name, sets, period)
        cells.extend(symbol_cells)
        if not ok:
            unresolved = True
        else:
            unary[name] = value

    for name in history[0].nary_map():
        rels = [s.tuples(name) for s in history]
        touched = sorted(set().union(*rels))
        rows = []
        ok = True
        for t in touched:
            bits = [1 if t in r else 0 for r in rels]
            tc = classify_tail(bits, period=period)
            value = _liminf_value(tc)
            cells.append(CellClass(name, t, tc.kind, value, tc.verified))
            if value is None:
                ok = False
            elif value:
                rows.append(t)
        if ok:
            nary[name] = frozenset(rows)
        else:
            unresolved = True

    record = LimitRecord(gamma, tuple(cells), all(c.verified for c in cells))
    if unresolved:
        return None, record
    return State.make(kappa, constants, unary, nary), record


def _limit_set(
    name: str, sets: list[OrdinalSet], period: int | None
) -> tuple[OrdinalSet, list[CellClass], bool]:
    if period is not None:
        cycle = sets[len(sets) - period:]
        value = cycle[0]
        for s in cycle[1:]:
            value = value.intersection(s)
        kind = "Stable" if all(s == cycle[0] for s in cycle) else "Periodic"
        return value, [CellClass(name, None, kind, value, True)], True

    cells: list[CellClass] = []
    polarity = [1 if s.kind == "cofinite" else 0 for s in sets]
    pol = classify_tail(polarity)
    pol_value = _liminf_value(pol)
    if any(polarity):
        cells.append(CellClass(name, "polarity", pol.kind, pol_value, pol.verified))
    if pol_value is None:
        return OrdinalSet.finite(), cells, False

    touched = sorted(set().union(*(s.elements for s in sets)))
    ok = True
    flipped: list[int] = []
    for x in touched:
        bits = [1 if s.member(x) else 0 for s in sets]
        tc = classify_tail(bits)
        value = _liminf_value(tc)
        cells.append(CellClass(name, x, tc.kind, value, tc.verified))
        if value is None:
            ok = False
        elif value != pol_value:
            flipped.append(x)
    if not ok:
        return OrdinalSet.finite(), cells, False
    if pol_value:
        return OrdinalSet.cofinite(flipped), cells, True
    return OrdinalSet.finite(flipped), cells, True


# ---------------------------------------------------------------------------
# the run loop


def _cell_events(stamp: OrdinalNotation, old: State, new: State) -> list[Event]:
    events: list[Event] = []
    for name, value in new.constants:
        before = old.constant(name)
        if before != value:
            events.append(Event(stamp, name, None, before, value))
    for name, after in new.unary:
        before = old.relation(name)
        if before == after:
            continue
        delta = before.symmetric_difference(after)
        if delta.kind == "cofinite":
            events.append(Event(stamp, name, "polarity", before.kind, after.kind))
        else:
            for x in sorted(delta.elements):
                events.append(Event(stamp, name, x, before.member(x), after.member(x)))
    for name, after_rows in new.nary:
        before_rows = old.tuples(name)
        for t in sorted(before_rows ^ after_rows):
            events.append(Event(stamp, name, t, t in before_rows, t in after_rows))
    return events


def run(
    vm: ValidatedMachine,
    A: OrdinalSet,
    budget: Budget = Budget(),
    mode: str = "full",
    *,
    debug: bool = False,
) -> RunTrace:
    """Execute a machine on an input set under a budget.

    mode "short" demands the run finish below the universe bound and
    fails with NotShort the moment the clock would reach it. The trace
    carries every cell change, the snapshots the policy asked for, one
    record per limit crossing, and the outcome.
    """
    if mode not in ("full", "short"):
        raise ValueError(f"unknown run mode {mode!r}")
    domain = domain_for(vm.kappa)
    if domain is None:
        raise Unsupported(f"no evaluation domain for kappa = {vm.kappa}")

    trace = RunTrace(machine=vm.spec.name, input=A)
    try:
        state = load(vm, A)
    except GseqaError as exc:
        trace.outcome = Failed(f"{type(exc).__name__}: {exc}")
        return trace

    base = ZERO
    offset = 0
    jumps = 0
    snap_all = budget.snapshotPolicy == "all"
    trace.snapshots.append((ZERO, state))
    seen_run: dict[State, OrdinalNotation] = {state: ZERO}

    while True:
        segment = [state]
        seen_segment = {state: 0}
        period = None
        finished = False

        for _ in range(budget.maxSuccessorStepsPerSegment):
            try:
                nxt = apply_transition(vm, state, domain, debug=debug)
            except GseqaError as exc:
                trace.outcome = Failed(f"{type(exc).__name__}: {exc}")
                _final_snapshot(trace, base.add(OrdinalNotation.from_int(offset)), state)
                return trace
            if nxt == state:
                trace.outcome = Terminated(state, unload(state))
                _final_snapshot(trace, base.add(OrdinalNotation.from_int(offset)), state)
                return trace
            offset += 1
            stamp = base.add(OrdinalNotation.from_int(offset))
            trace.events.extend(_cell_events(stamp, state, nxt))
            if snap_all:
                trace.snapshots.append((stamp, nxt))
            state = nxt
            if state in seen_segment:
                period = len(segment) - seen_segment[state]
                finished = True
            else:
                if state in seen_run and not trace.warnings:
                    trace.warnings.append(
                        f"stage {stamp} repeats the state of stage "
                        f"{seen_run[state]}; the stage map is not injective"
                    )
                seen_segment[state] = len(segment)
                segment.append(state)
                seen_run.setdefault(state, stamp)
            if finished:
                break

        stamp = base.add(OrdinalNotation.from_int(offset))
        target = next_limit(stamp)
        if mode == "short" and not target < vm.kappa:
            trace.outcome = Failed(
                f"NotShort: the clock would reach {target} at the universe bound"
            )
            _final_snapshot(trace, stamp, state)
            return trace
        if jumps >= budget.maxLimitJumps:
            trace.outcome = OutOfBudget(
                f"{jumps} limit jumps exhausted at clock {stamp}"
            )
            _final_snapshot(trace, stamp, state)
            return trace

        lim, record = limit_state(segment, target, vm.kappa, period=period)
        trace.limitRecords.append(record)
        if lim is None:
            trace.outcome = LimitUnresolved(target)
            _final_snapshot(trace, stamp, state)
            return trace
        trace.events.extend(_cell_events(target, state, lim))
        trace.snapshots.append((target, lim))
        if lim in seen_run and not trace.warnings:
            trace.warnings.append(
                f"stage {target} repeats the state of stage {seen_run[lim]}; "
                "the stage map is not injective"
            )
        seen_run.setdefault(lim, target)
        state = lim
        base = target
        offset = 0
        jumps += 1


def _final_snapshot(trace: RunTrace, stamp: OrdinalNotation, state: State) -> None:
    if trace.snapshots and trace.snapshots[-1] == (stamp, state):
        return
    trace.snapshots.append((stamp, state))


# ---------------------------------------------------------------------------
# reduction certificates


@dataclass(frozen=True)
class ReductionCertificate:
    """Evidence that a machine maps one set to another, or why not.

    ok means the run terminated with exactly the expected output; the
    full trace rides along either way, and actual carries the output the
    run really produced when there was one.
    """

    ok: bool
    short: bool
    expected: OrdinalSet
    actual: OrdinalSet | None
    trace: RunTrace


def certify_reduction(
    vm: ValidatedMachine,
    A: OrdinalSet,
    B: OrdinalSet,
    budget: Budget = Budget(),
) -> ReductionCertificate:
    trace = run(vm, A, budget)
    if isinstance(trace.outcome, Terminated):
        actual = trace.outcome.output
        return ReductionCertificate(
            ok=actual == B,
            short=trace.is_short(vm.kappa),
            expected=B,
            actual=actual,
            trace=trace,
        )
    return ReductionCertificate(False, False, B, None, trace)


# ---------------------------------------------------------------------------
# trace serialization


def dump_trace(trace: RunTrace) -> str:
    """Newline-delimited trace records, one per line, streamable."""
    lines = [f"trace\t{trace.machine}\tinput={trace.input}"]
    for e in trace.events:
        lines.append(f"event\t{e.stamp}\t{e.symbol}\t{e.cell}\t{e.old}\t{e.new}")
    for stamp, state in trace.snapshots:
        flat = str(state).replace("\n", "; ")
        lines.append(f"snapshot\t{stamp}\t{flat}")
    for record in trace.limitRecords:
        for c in record.cells:
            lines.append(
                f"classification\t{record.stamp}\t{c.symbol}\t{c.cell}"
                f"\t{c.kind}\t{c.value}\tverified={c.verified}"
            )
    for w in trace.warnings:
        lines.append(f"warning\t{w}")
    lines.append(f"outcome\t{_outcome_line(trace.outcome)}")
    return "\n".join(lines) + "\n"


def _outcome_line(outcome: Outcome | None) -> str:
    if isinstance(outcome, Terminated):
        return f"Terminated\toutput={outcome.output}"
    if isinstance(outcome, OutOfBudget):
        return f"OutOfBudget\t{outcome.reason}"
    if isinstance(outcome, LimitUnresolved):
        return f"LimitUnresolved\t{outcome.limit}"
    if isinstance(outcome, Failed):
        return f"Failed\t{outcome.reason}"
    return "None"
