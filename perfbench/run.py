"""Benchmark for gseqa: one workload per call, closed loop, one caller.

    python3 perfbench/run.py --workload bridge --seed 1 --seconds 15 --trace 0

Set-up (parse, build, admit) runs several times and is timed on its own.
Then whole rounds of the workload run back to back until --seconds have
passed, each operation checked against its reference. With --trace 0
the last line of output is a JSON object with the end-to-end metrics;
with --trace 1 the gseqa layers are wrapped in spans and it carries the
per-layer metrics instead, after one untraced round that prices the
tracing. Times are scaled to a reference host speed (see clock.py).
Results and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-up runs at least SETUPS times, and again while the set-ups so far
# took less than SETUP_SECONDS, up to MAX_SETUPS: a short set-up is
# noisy, and its median needs more samples.
SETUPS = 3
SETUP_SECONDS = 2.0
MAX_SETUPS = 15


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def percentile(samples: list, p: int) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def duration(interval: tuple[float, float]) -> float:
    return interval[1] - interval[0]


def run_rounds(workload, built, clock, seconds: float, min_rounds: int, on_round=None):
    """Whole rounds until the time is used, stopping before a round that
    would overrun it by more than half its length. A round's wall time is
    the time of its operations, without the clock's samples between them."""
    from workloads import Round

    rounds, walls = [], []
    while True:
        result = Round(clock)
        workload.round(built, result)
        rounds.append(result)
        walls.append(sum(map(duration, result.intervals)))
        if on_round:
            on_round(result)
        if len(rounds) >= min_rounds and sum(walls) + 0.5 * statistics.median(walls) > seconds:
            return rounds, walls


def end_to_end(setups: list, verdicts: list, steps: int) -> dict:
    """Metrics from set-up times and per-round lists of verdict times."""
    samples = [s for r in verdicts for s in r]
    walls = [sum(r) for r in verdicts]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "steps_per_s": (steps / sum(walls), "1/s"),
        "pairs_per_s": (len(samples) / sum(walls), "1/s"),
        "verdict_s_p50": (statistics.median(samples), "s"),
        "verdict_s_p90": (percentile(samples, 90), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(layers, setup_stats, round_stats, counts, coverage, overhead) -> dict:
    """Per-layer metrics for one set-up plus one round (median round times)."""
    metrics = {}

    def value(name, field):
        rounds = [stats[name][field] for stats in round_stats]
        return setup_stats[name][field] + (rounds[0] if field == 0 else statistics.median(rounds))

    for name in layers:
        metrics[f"{name}.calls"] = (value(name, 0), "count")
        metrics[f"{name}.s"] = (value(name, 1), "s")
    metrics["logic.static.s"] = (sum(value(f"logic.{fn}", 1) for fn in
                                     ("free_vars", "quantifier_rank", "ordinal_literals")), "s")
    metrics["satisfaction.eval_self.s"] = (value("satisfaction.defined_set", 2)
                                           + value("satisfaction.defined_relation", 2), "s")
    metrics["runtime.self.s"] = (value("runtime.run", 2), "s")
    for name in ("runtime.steps", "runtime.events", "runtime.trace_bytes", "runtime.limit_cells",
                 "runtime.verified_cells", "states.support_max"):
        metrics[name] = (counts[name], "count")
    cells = counts["runtime.limit_cells"]
    metrics["runtime.verified_ratio"] = (counts["runtime.verified_cells"] / cells if cells else 0.0, "ratio")
    metrics["trace.coverage"] = (coverage, "ratio")
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def measure(workload, clock, args, tracer_mod):
    """Set up (see SETUPS), then run rounds; with tracing, also price it.

    Returns the rounds, their wall times, the set-up times and, when
    traced, (tracer, set-up stats, per-round stats, untraced round).
    """
    tracer = None
    observed = {"support": 0}
    if args.trace:
        def see_state(state):
            observed["support"] = max(observed["support"], state.support_bound())

        tracer = tracer_mod.Tracer(clock.now, {"validator.apply_transition": see_state})
        tracer.install()

    setups = []
    while len(setups) < SETUPS or (
        sum(map(duration, setups)) < SETUP_SECONDS and len(setups) < MAX_SETUPS
    ):
        before = tracer.snapshot() if tracer else None
        start = clock.now()
        built = workload.setup()
        setups.append((start, clock.now()))
    if not tracer:
        rounds, walls = run_rounds(workload, built, clock, args.seconds, 1)
        return rounds, walls, setups, None

    setup_stats = tracer_mod.diff(tracer.snapshot(), before)
    tracer.uninstall()
    (untraced,), _ = run_rounds(workload, built, clock, 0, 1)
    tracer.install()
    round_stats = []
    last = [tracer.snapshot()]

    def on_round(result):
        now = tracer.snapshot()
        round_stats.append(tracer_mod.diff(now, last[0]))
        last[0] = now
        result.support_max = max(result.support_max, observed["support"])
        observed["support"] = 0

    rounds, walls = run_rounds(workload, built, clock, args.seconds, 2, on_round)
    tracer.uninstall()
    return rounds, walls, setups, (tracer, setup_stats, round_stats, untraced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "gseqa" / "__init__.py").is_file():
        print(f"perfbench: no gseqa sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import gseqa

    if Path(gseqa.__file__).resolve().parent != (src / "gseqa").resolve():
        print(f"perfbench: imported gseqa from {gseqa.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracer as tracer_mod
    import workloads
    from clock import Clock

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    env = environment()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    with Clock() as clock:
        rounds, walls, setups, traced = measure(workload, clock, args, tracer_mod)

    failures = [f for r in rounds for f in r.failures]
    failed = sum(r.failed for r in rounds)
    attempted = sum(len(r.intervals) for r in rounds)
    counts = [r.counts() for r in rounds]
    if traced:
        for c, r in zip(counts, rounds):
            c["states.support_max"] = r.support_max
    # determinism self-check: every round repeats the first one's counts
    for i, c in enumerate(counts[1:], start=2):
        if c != counts[0]:
            changed = sorted(k for k in c if c[k] != counts[0][k])
            failures.append(f"round {i} counts differ from round 1: {changed}")
            failed += 1

    if traced:
        tracer, setup_stats, round_stats, untraced = traced
        coverage = statistics.median(
            sum(s for _, _, s in stats.values()) / wall for stats, wall in zip(round_stats, walls))
        untraced_s = sum(map(duration, untraced.intervals))
        overhead = statistics.median(walls) - untraced_s
        raw = per_layer(tracer.names, setup_stats, round_stats, counts[0], coverage, overhead)
        factor = clock.factor()
        metrics = {k: (v * factor if u == "s" else v, u) for k, (v, u) in raw.items()}
        # both sides of the overhead scaled by the host speed at their own time
        metrics["trace.overhead_s"] = (
            statistics.median(sum(map(clock.scaled, r.intervals)) for r in rounds)
            - sum(map(clock.scaled, untraced.intervals)), "s")
    else:
        steps = sum(r.steps for r in rounds)
        raw = end_to_end([duration(i) for i in setups],
                         [[duration(i) for i in r.intervals] for r in rounds], steps)
        metrics = end_to_end([clock.scaled(i) for i in setups],
                             [[clock.scaled(i) for i in r.intervals] for r in rounds], steps)
        factor = clock.factor()

    beyond_p90 = attempted - int(0.9 * attempted) - 1
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{len(setups)} set-ups, {len(rounds)} rounds, {attempted} verdicts "
          f"({beyond_p90} samples beyond p90), {failed} failed, "
          f"failed_ratio {failed / attempted:.4f}")
    print(f"host speed factor {factor:.4f} over the run, from {len(clock.kernel_s)} kernel samples")
    print(f"  {'metric':40s} {'reference host':>16s} {'as measured':>16s}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:16.6f} {raw[name][0]:16.6f} {unit}")
    if traced:
        print(f"traced rounds cover {coverage:.1%} of wall_s; untraced round {untraced_s:.3f} s, "
              f"tracing adds {overhead:.3f} s per round (as measured)")
    for f in failures[:20]:
        print(f"FAILED {f}")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env, "rounds": len(rounds),
        "verdicts": attempted, "failed": failed, "failures": failures, "counts": counts[0],
        "speed_factor": factor, "kernel_s": clock.kernel_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "measured": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if traced:
        spans = tracer.write_spans(OUT / f"{args.workload}.spans.tsv")
        print(f"{spans} spans written to {OUT / (args.workload + '.spans.tsv')}")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
