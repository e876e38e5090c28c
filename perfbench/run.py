"""The repository benchmark: one workload at one seed.

Run from the repository root::

    python3 perfbench/run.py --workload paper-eval --seed 42 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same work untraced and then traced, and reports the
per-layer table (plus the tracing overhead between the two passes).  Either
way every output is checked; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A record of the
run (seed, metrics, failures, work-count fingerprints) is written to
``perfbench/out/``, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Set-up repetitions per run; setup_s is their median.
SETUP_REPS = 9

#: Default seed per workload (the figure suites' seed, the campaign's).
DEFAULT_SEEDS = {"paper-eval": 42, "fuzz-campaign": 0, "shuffle-64": 42}


class Tally:
    """Operations attempted and the ones that failed, with reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def units(self, units, reference=None) -> None:
        """Count every job and unit check; a job must also match the job
        at the same place in ``reference`` (when given)."""
        for k, unit in enumerate(units):
            expected = reference[k].jobs if reference else None
            for i, job in enumerate(unit.jobs):
                same = expected is None or (
                    i < len(expected) and expected[i].fingerprint == job.fingerprint
                )
                self.check(job.ok and same, f"unit {k}: {job.label}")
            for label, failed in unit.checks:
                self.check(not failed, f"{label}: {'; '.join(failed)}")


def run_units(workload, probe, *, seconds: float, minimum: int):
    """Run units until ``seconds`` have passed, and at least ``minimum``
    of them.  Returns ``(units, wall_s)``."""
    gc.collect()
    units = []
    start = perf_counter()
    while len(units) < minimum or perf_counter() - start < seconds:
        units.append(workload.unit(len(units), probe))
    return units, perf_counter() - start


def two_passes(workload_cls, seed: int, seconds: float, calibration,
               tracer=None):
    """Run units for half of ``seconds``, then the same units again.

    The second pass is traced when a tracer is given.  Every job of the
    second pass must reproduce the first pass's fingerprint exactly, and a
    workload that repeats its inputs must reproduce its first unit.
    Returns ``(tally, (first, second), (first_wall, second_wall),
    workload, probe)`` with the second pass's workload and probe.
    """
    from instrument import Patches, StepProbe

    passes, walls = [], []
    for with_tracer in (False, tracer is not None):
        workload = workload_cls(seed)
        probe = StepProbe(calibration)
        with Patches() as patches:
            if with_tracer:
                tracer.install(patches)
            probe.install(patches)
            units, wall = run_units(
                workload,
                probe,
                seconds=seconds / 2 if not passes else 0,
                minimum=len(passes[0]) if passes else 1,
            )
        passes.append(units)
        walls.append(wall)
    first, second = passes
    tally = Tally()
    tally.units(first, [first[0]] * len(first) if workload.repeats else None)
    tally.units(second, first)
    return tally, passes, walls, workload, probe


def fingerprints(units) -> list[str]:
    return [
        hashlib.sha256(
            repr([j.fingerprint for j in unit.jobs]).encode()
        ).hexdigest()[:16]
        for unit in units
    ]


def end_to_end(workload_cls, seed: int, seconds: float):
    """Set-up time, then two untraced passes; each job counts at the faster
    of its two repeats, and every timing is scaled to reference speed."""
    from calibrate import Calibration
    from instrument import Timing

    calibration = Calibration()
    for_setup = workload_cls(seed)
    setup_s = []
    for _ in range(SETUP_REPS):
        gc.collect()
        start = perf_counter()
        for_setup.setup()
        setup_s.append(perf_counter() - start)
    tally, (first, second), walls, workload, _ = two_passes(
        workload_cls, seed, seconds, calibration
    )
    # Every repeat of a job - the other pass, and other units when the
    # workload repeats its inputs - counts at its fastest.
    repeats: dict[tuple[int, int], Timing] = {}
    for units in (first, second):
        for k, unit in enumerate(units):
            for i, job in enumerate(unit.jobs):
                key = (0 if workload.repeats else k, i)
                best = repeats.get(key)
                repeats[key] = job.timing if best is None else best.fastest(job.timing)
    timings = list(repeats.values())
    steps = [s for t in timings for s in t.steps]
    round_steps = [
        s for t in timings for s, fired in zip(t.steps, t.rounds) if fired
    ]
    slowdown = calibration.slowdown()
    raw = {
        "ticks_per_s": len(steps) / sum(steps),
        "jobs_per_s": len(timings) / sum(t.wall_s for t in timings),
        "setup_s": statistics.median(setup_s),
        "step_ms.p50": statistics.median(steps) * 1e3,
        "round_step_ms.p50": statistics.median(round_steps) * 1e3,
    }
    metrics = {
        "ticks_per_s": (raw["ticks_per_s"] * slowdown, "ticks/s"),
        "jobs_per_s": (raw["jobs_per_s"] * slowdown, "jobs/s"),
        "setup_s": (raw["setup_s"] / slowdown, "s"),
        "step_ms.p50": (raw["step_ms.p50"] / slowdown, "ms"),
        "round_step_ms.p50": (raw["round_step_ms.p50"] / slowdown, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
        ),
    }
    info = {
        "slowdown": slowdown,
        "raw": raw,
        "calibration_s": calibration.samples,
        "units": len(first),
        "jobs": len(timings),
        "pass_wall_s": walls,
        "steps": len(steps),
        "round_steps": len(round_steps),
        "setup_samples_s": setup_s,
        "invariant_checks": getattr(workload, "checks", {}),
        "fingerprints": fingerprints(first),
    }
    return tally, metrics, info, None


def traced(workload_cls, seed: int, seconds: float):
    """An untraced pass, then the same units traced: the per-layer table."""
    from calibrate import Calibration
    from spans import Tracer

    tracer = Tracer()
    # No kernel samples here: they would land inside the traced spans.
    tally, (first, _), (base_wall, wall), workload, probe = two_passes(
        workload_cls, seed, seconds, Calibration(period_s=math.inf), tracer
    )
    checks = getattr(workload, "checks", {})
    metrics = tracer.metrics()
    metrics.update(probe.totals())
    metrics["fuzz.checks"] = (sum(checks.values()), "count")
    metrics["fuzz.violations"] = (getattr(workload, "violations", 0), "count")
    metrics["bench.trace_overhead_pct"] = (
        100.0 * (wall - base_wall) / base_wall,
        "%",
    )
    info = {
        "units": len(first),
        "untraced_wall_s": base_wall,
        "traced_wall_s": wall,
        "spans": len(tracer.spans),
        "invariant_checks": checks,
        "fingerprints": fingerprints(first),
    }
    return tally, metrics, info, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources ({SRC}) are missing", file=sys.stderr)
        return 2
    # The program, and the repository root for the shuffle world of
    # ``benchmarks/perf/scale.py``.
    sys.path[:0] = [str(SRC), str(HERE.parent)]
    from jobs import WORKLOADS

    measure = traced if args.trace else end_to_end
    tally, metrics, info, tracer = measure(
        WORKLOADS[args.workload], seed, args.seconds
    )
    failed = len(tally.failures)
    record = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": tally.attempted,
        "failed": failed,
        "failures": tally.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **info,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl.gz")

    print(f"{args.workload} seed={seed} trace={args.trace}: "
          f"{tally.attempted} operations, {failed} failed")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    if info.get("invariant_checks"):
        print(f"  invariant checks: {info['invariant_checks']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": tally.attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
