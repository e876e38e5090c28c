"""Topology-scale benchmark sweep: reference vs dense engine backend.

Builds an all-to-all shuffle world (one source per site fanning into a
globally partitioned aggregation) at increasing site counts and measures
steady-state ticks/s (the reciprocal of the median tick) for both engine
backends.  The shuffle regime is the honest scale case for a WAN stream
processor: with ``n`` sites the world carries ``n * (n - 1)`` active
flows, so per-flow work dominates and the dense backend's fused array
kernels are exercised where they matter.

Each point is the median of :data:`POINT_RUNS` rounds; in a round both
backends' runtimes tick in turn, :data:`BLOCK_TICKS` ticks at a time, so
a change in machine speed meets both.  Each point also records the backend
``engine_backend="auto"`` resolves to for its world, and the sweep warns
(without failing) wherever that backend took more than 25% longer per
tick than the other one.

Controller-on points time the adaptation rounds as the topology grows:
the paper testbed widened to 16/32/64 sites (``TestbedSpec.edge_count``)
runs ``events-of-interest`` under WASP with the Section 8.4 bottleneck
dynamics for 600 s, and each point records the round count, the round
time p50/p90, the metric-window ``collect`` p50 and the rounds' share of
wall time.  ``collect`` builds the window from the running sums the
engine keeps; the per-tick additions into them are part of the ticks, so
they count in the wall time but not in ``collect`` or the round.

Usage (from the repo root)::

    PYTHONPATH=src python -m benchmarks.perf.scale --out BENCH_scale.json
    PYTHONPATH=src python -m benchmarks.perf.scale --short   # CI sweep

The reduced sweep keeps the 16- and 32-site controller points.

Everything is seeded: same sizes + seed produce the identical world, so
results are comparable across commits (only wall time varies).
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro.api import build_testbed
from repro.config import WaspConfig
from repro.engine import operators as ops
from repro.engine.dense import (
    AUTO_DENSE_MIN_FLOWS,
    DenseEngineRuntime,
    create_runtime,
    potential_wan_flows,
    resolve_backend,
)
from repro.engine.logical import LogicalPlan
from repro.engine.physical import PhysicalPlan
from repro.engine.runtime import WorkloadModel
from repro.experiments.scenarios import bottleneck_dynamics, launch
from repro.network.site import Site, SiteKind
from repro.network.topology import Topology
from repro.network.traces import TestbedSpec

#: Seed shared by every sweep point (same worlds across commits).
SCALE_SEED = 42

#: Full sweep: site counts x aggregation parallelism per site (8-16 sites
#: bracket the auto rule's crossover).
FULL_SIZES = (4, 8, 10, 12, 16, 64, 128)
FULL_PARALLELISM = (1, 2)

#: Reduced sweep for CI smoke runs.
SHORT_SIZES = (4, 16, 32)
SHORT_PARALLELISM = (2,)

#: Measured ticks per site count (smaller worlds need more ticks for a
#: stable rate; big ones are slow enough that fewer suffice).
_MEASURE_TICKS = {
    4: 200, 8: 200, 10: 200, 12: 150, 16: 150, 32: 120, 64: 120, 128: 60,
}
_WARMUP_TICKS = 30
_SHORT_MEASURE = 40
_SHORT_WARMUP = 10

#: Rounds per sweep point (the median round is recorded): single runs on
#: a shared machine moved the small points' ratios by up to ±30%.
POINT_RUNS = 3

#: Ticks a backend runs before the other one takes its turn in a round.
BLOCK_TICKS = 5

#: Controller-on points: site counts of the widened paper testbed.
CONTROLLER_SIZES = (16, 32, 64)
SHORT_CONTROLLER_SIZES = (16, 32)
CONTROLLER_DURATION_S = 600.0

#: Per-tick time ratio (picked / other backend) above which the sweep
#: warns that ``auto`` picked the slower backend.
AUTO_SLOWDOWN_WARN = 1.25


class _ConstWorkload(WorkloadModel):
    """Constant-rate sources; the sweep measures engine mechanics, not
    workload dynamics."""

    def __init__(self, rates: dict[str, float]) -> None:
        self.rates = dict(rates)

    def generation_eps(self, name: str, t_s: float) -> float:
        return self.rates[name]

    def base_rate_eps(self, name: str) -> float:
        return self.rates[name]


def build_world(
    n_sites: int, parallelism: int, seed: int = SCALE_SEED
) -> tuple[Topology, PhysicalPlan, WorkloadModel]:
    """All-to-all shuffle world: one source per site, ``parallelism``
    aggregation tasks on every site, a single sink.

    Per-site source rate grows with ``n_sites`` so the aggregate keeps the
    same per-task load at every size; link capacities and latencies are
    drawn from a seeded RNG so the WAN is heterogeneous but reproducible.
    """
    rng = np.random.default_rng(seed)
    names = [f"s{i:03d}" for i in range(n_sites)]
    sites = [
        Site(nm, SiteKind.DATA_CENTER, total_slots=64, proc_rate_eps=40_000.0)
        for nm in names
    ]
    topo = Topology(sites)
    for a in names:
        for b in names:
            if a != b:
                topo.set_link(
                    a,
                    b,
                    float(rng.uniform(1.0, 10.0)),
                    float(rng.uniform(10.0, 100.0)),
                )
    srcs = []
    rates: dict[str, float] = {}
    for j, site in enumerate(names):
        nm = f"src{j:03d}"
        srcs.append((ops.source(nm, site, event_bytes=200, cost=0.1), site))
        rates[nm] = 2500.0 * n_sites
    agg = ops.window_aggregate(
        "agg", window_s=10.0, selectivity=0.5, state_mb=64.0, cost=2.0
    )
    sink = ops.sink("sink")
    edges = [(s.name, "agg") for s, _ in srcs] + [("agg", "sink")]
    logical = LogicalPlan.from_edges(
        "scale", [s for s, _ in srcs] + [agg, sink], edges
    )
    plan = PhysicalPlan(logical)
    for spec, site in srcs:
        plan.stage(spec.name).add_task(site)
    for nm in names:
        for _ in range(parallelism):
            plan.stage("agg").add_task(nm)
    plan.stage("sink").add_task(names[0])
    return topo, plan, _ConstWorkload(rates)


def run_round(
    backends: tuple[str, ...],
    n_sites: int,
    parallelism: int,
    warmup: int,
    measure: int,
    seed: int = SCALE_SEED,
) -> dict[str, dict]:
    """Time ``measure`` steady-state ticks of each backend at one size.

    The backends' runtimes live side by side and tick in turn, in blocks
    of :data:`BLOCK_TICKS`, so a change in machine speed meets all of them.
    ``ticks_per_s`` is the reciprocal of the median tick, which the first
    tick of each block does not move: at scale a reference tick evicts the
    dense arrays from cache, and that tick pays for it.
    """
    runtimes = {}
    for backend in backends:
        topo, plan, workload = build_world(n_sites, parallelism, seed)
        config = WaspConfig.paper_defaults().with_overrides(
            engine_backend=backend
        )
        runtimes[backend] = create_runtime(topo, plan, workload, config)
    flows = potential_wan_flows(plan)
    auto = resolve_backend(plan, "auto")
    for _ in range(warmup):
        for runtime in runtimes.values():
            runtime.tick()
    ticks_s: dict[str, list[float]] = {backend: [] for backend in backends}
    for start in range(0, measure, BLOCK_TICKS):
        for backend, runtime in runtimes.items():
            for _ in range(min(BLOCK_TICKS, measure - start)):
                t0 = time.perf_counter()
                runtime.tick()
                ticks_s[backend].append(time.perf_counter() - t0)
    points = {}
    for backend, runtime in runtimes.items():
        tick_p50 = float(np.median(ticks_s[backend]))
        points[backend] = {
            "backend": backend,
            "sites": n_sites,
            "parallelism": parallelism,
            "ticks": measure,
            "wall_s": sum(ticks_s[backend]),
            "ticks_per_s": 1.0 / tick_p50 if tick_p50 > 0 else float("inf"),
            "potential_flows": flows,
            "auto_backend": auto,
            # Sanity fingerprints: both backends must agree on these.
            "total_backlog": float(runtime.total_backlog()),
            "sink_events": float(runtime.last_report.sink_events),
        }
    return points


def run_point(
    backend: str,
    n_sites: int,
    parallelism: int,
    warmup: int,
    measure: int,
    seed: int = SCALE_SEED,
) -> dict:
    """Time ``measure`` steady-state ticks of one backend at one size."""
    return run_round(
        (backend,), n_sites, parallelism, warmup, measure, seed
    )[backend]


def run_sweep(
    sizes: tuple[int, ...],
    parallelisms: tuple[int, ...],
    warmup: int,
    measure_by_size: dict[int, int] | None,
    seed: int = SCALE_SEED,
    verbose: bool = True,
) -> list[dict]:
    """Time every point in :data:`POINT_RUNS` rounds of both backends,
    swapping their order each round; a point records the round with the
    median dense/reference ratio, and every round's ticks/s in
    ``run_ticks_per_s``."""
    points = []
    for n in sizes:
        measure = (
            measure_by_size.get(n, _SHORT_MEASURE)
            if measure_by_size
            else _SHORT_MEASURE
        )
        for p in parallelisms:
            rounds = [
                run_round(
                    ("reference", "dense") if i % 2 == 0
                    else ("dense", "reference"),
                    n, p, warmup, measure, seed,
                )
                for i in range(POINT_RUNS)
            ]
            rounds.sort(
                key=lambda r: r["dense"]["ticks_per_s"]
                / r["reference"]["ticks_per_s"]
            )
            pair = rounds[len(rounds) // 2]
            for backend in ("reference", "dense"):
                res = pair[backend]
                res["run_ticks_per_s"] = [
                    r[backend]["ticks_per_s"] for r in rounds
                ]
                points.append(res)
                if verbose:
                    print(
                        f"  sites={n:4d} p={p} {backend:9s}: "
                        f"{res['ticks_per_s']:9.1f} ticks/s "
                        f"(backlog={res['total_backlog']:.3f})",
                        file=sys.stderr,
                    )
            speedup = (
                pair["dense"]["ticks_per_s"] / pair["reference"]["ticks_per_s"]
            )
            pair["dense"]["speedup_vs_reference"] = speedup
            if verbose:
                print(
                    f"  sites={n:4d} p={p} speedup  : {speedup:.2f}x",
                    file=sys.stderr,
                )
    return points


def _timed(fn: Callable, samples_ms: list[float]) -> Callable:
    """``fn`` wrapped to append each call's wall time (ms) to a list."""

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            samples_ms.append((time.perf_counter() - t0) * 1000.0)

    return wrapper


def run_controller_point(
    n_sites: int,
    duration_s: float = CONTROLLER_DURATION_S,
    seed: int = SCALE_SEED,
) -> dict:
    """Time the adaptation rounds of one controller-on run.

    The paper testbed keeps its eight data centers and grows its edge
    count to reach ``n_sites``; the query, variant and dynamics are the
    Figure 8 WASP run's, on the default (``auto``) engine backend.
    """
    spec = TestbedSpec(edge_count=n_sites - TestbedSpec.dc_count)
    run = launch(
        "events-of-interest", topology=build_testbed(seed, spec), seed=seed
    )
    manager = run.manager
    round_ms: list[float] = []
    collect_ms: list[float] = []
    # Instance attributes shadow the methods the run calls through.
    manager.adaptation_round = _timed(manager.adaptation_round, round_ms)
    manager.monitor.collect = _timed(manager.monitor.collect, collect_ms)
    t0 = time.perf_counter()
    run.run(duration_s, bottleneck_dynamics())
    wall = time.perf_counter() - t0
    return {
        "sites": n_sites,
        "duration_s": duration_s,
        "backend": (
            "dense"
            if isinstance(run.runtime, DenseEngineRuntime)
            else "reference"
        ),
        "wall_s": wall,
        "rounds": len(round_ms),
        "adaptations": len(manager.history),
        "round_ms_p50": float(np.percentile(round_ms, 50)),
        "round_ms_p90": float(np.percentile(round_ms, 90)),
        "collect_ms_p50": float(np.percentile(collect_ms, 50)),
        "round_share": sum(round_ms) / 1000.0 / wall,
    }


def run_controller_sweep(
    sizes: tuple[int, ...], seed: int = SCALE_SEED, verbose: bool = True
) -> list[dict]:
    points = []
    for n in sizes:
        res = run_controller_point(n, seed=seed)
        points.append(res)
        if verbose:
            print(
                f"  sites={n:4d} controller: {res['rounds']} rounds, "
                f"round p50 {res['round_ms_p50']:.2f} ms "
                f"p90 {res['round_ms_p90']:.2f} ms, "
                f"collect p50 {res['collect_ms_p50']:.3f} ms, "
                f"{100 * res['round_share']:.0f}% of {res['wall_s']:.2f} s",
                file=sys.stderr,
            )
    return points


def auto_warnings(points: list[dict]) -> list[str]:
    """One line per sweep point where the backend ``auto`` picks took
    more than :data:`AUTO_SLOWDOWN_WARN` times longer per tick than the
    other backend."""
    rates = {
        (pt["sites"], pt["parallelism"], pt["backend"]): pt["ticks_per_s"]
        for pt in points
    }
    warnings = []
    for pt in points:
        if pt["backend"] != pt["auto_backend"]:
            continue
        other = "dense" if pt["backend"] == "reference" else "reference"
        slowdown = (
            rates[(pt["sites"], pt["parallelism"], other)] / pt["ticks_per_s"]
        )
        if slowdown > AUTO_SLOWDOWN_WARN:
            warnings.append(
                f"sites={pt['sites']} p={pt['parallelism']} "
                f"({pt['potential_flows']} potential flows): auto picks "
                f"{pt['backend']}, {slowdown:.2f}x the per-tick time of "
                f"{other}"
            )
    return warnings


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except OSError:  # pragma: no cover - no git in exotic environments
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf.scale",
        description="topology-scale sweep: reference vs dense backend",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        help=f"site counts to sweep (default {list(FULL_SIZES)})",
    )
    parser.add_argument(
        "--parallelism",
        type=int,
        nargs="+",
        default=None,
        help=f"agg tasks per site (default {list(FULL_PARALLELISM)})",
    )
    parser.add_argument(
        "--short",
        action="store_true",
        help=(
            "reduced CI sweep: sizes 4/16/32, fewer ticks, controller "
            "points at 16/32 sites"
        ),
    )
    parser.add_argument("--seed", type=int, default=SCALE_SEED)
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the JSON report here (e.g. BENCH_scale.json)",
    )
    args = parser.parse_args(argv)

    if args.short:
        sizes = tuple(args.sizes) if args.sizes else SHORT_SIZES
        parallelisms = (
            tuple(args.parallelism) if args.parallelism else SHORT_PARALLELISM
        )
        warmup, measure_by_size = _SHORT_WARMUP, None
        controller_sizes = SHORT_CONTROLLER_SIZES
    else:
        sizes = tuple(args.sizes) if args.sizes else FULL_SIZES
        parallelisms = (
            tuple(args.parallelism) if args.parallelism else FULL_PARALLELISM
        )
        warmup, measure_by_size = _WARMUP_TICKS, dict(_MEASURE_TICKS)
        controller_sizes = CONTROLLER_SIZES

    points = run_sweep(sizes, parallelisms, warmup, measure_by_size, args.seed)
    controller_points = run_controller_sweep(controller_sizes, args.seed)
    warnings = auto_warnings(points)
    for line in warnings:
        print(f"warning: {line}", file=sys.stderr)
    report = {
        "schema": "wasp-scale-bench/v1",
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": args.seed,
        "short": bool(args.short),
        "auto_dense_min_flows": AUTO_DENSE_MIN_FLOWS,
        "auto_warnings": warnings,
        "points": points,
        "controller_points": controller_points,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n")
        print(f"\nwrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
