"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` - deploy a Table-3 query under a named dynamics scenario and one
  or more controller variants; prints the per-variant summary and the
  adaptation log.
* ``figures`` - regenerate one of the paper's figures/tables as text.
* ``trace`` - render the adaptation timeline of a JSONL trace produced by
  ``--trace-out`` (or validate it with ``--validate-only``).
* ``fuzz`` - run a seeded scenario-fuzzing campaign under runtime
  invariant checking (``repro.fuzz``), or replay a pinned repro artifact.
* ``list`` - enumerate the available queries, variants, dynamics, figures.

Examples::

    python -m repro run --query topk-topics --variant WASP \
        --dynamics bottleneck --duration 900
    python -m repro run --query ysb-advertising \
        --variant "No Adapt" --variant WASP --dynamics live
    python -m repro run --dynamics technique --trace-out run.jsonl
    python -m repro trace run.jsonl
    python -m repro figures fig13
    python -m repro fuzz --seeds 25 --jobs 2 --out fuzz-report.json
    python -m repro fuzz --seeds 200 --jobs 2 --min-exercise 1
    python -m repro fuzz --replay tests/fuzz/fixtures/conservation.json
    python -m repro list
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .baselines.variants import ALL_NAMED, VariantSpec
from .config import ENGINE_BACKENDS, WaspConfig
from .engine.runtime import TICK_S
from .errors import WaspError
from .experiments import figures as fig
from .experiments.harness import ExperimentRun
from .experiments.scenarios import (
    FIG13_STATE_MB,
    FIGURE_SCENARIOS,
    QUERIES,
    bottleneck_dynamics,
    controlled_adaptation,
    fig14_rows,
    launch,
    live_dynamics,
    migration_variants,
    quiet_dynamics,
    run_variants,
    technique_dynamics,
)
from .network.bandwidth import oregon_ohio_trace
from .network.traces import paper_testbed
from .sim.rng import RngRegistry
from .workloads.queries import all_queries

DYNAMICS = {
    "quiet": quiet_dynamics,
    "bottleneck": bottleneck_dynamics,
    "technique": technique_dynamics,
    "live": live_dynamics,
}
FIGURES = (
    "fig2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
    "fig13", "fig14", "table2", "table3",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="WASP (Middleware '20) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a query under dynamics")
    run_p.add_argument(
        "--query", choices=tuple(QUERIES), default="topk-topics"
    )
    run_p.add_argument(
        "--variant",
        action="append",
        default=None,
        help=f"controller variant (repeatable); one of {sorted(ALL_NAMED)}",
    )
    run_p.add_argument("--dynamics", choices=sorted(DYNAMICS),
                       default="bottleneck")
    run_p.add_argument("--duration", type=float, default=900.0)
    run_p.add_argument("--seed", type=int, default=42)
    run_p.add_argument(
        "--backend",
        choices=ENGINE_BACKENDS,
        default=None,
        help="engine backend: per-parcel reference loops, the numpy "
        "structure-of-arrays kernel, or auto (picked from the plan's "
        "potential WAN flows); default: the config's engine_backend",
    )
    run_p.add_argument(
        "--profile",
        action="store_true",
        help="profile each variant with cProfile and print the hot spots",
    )
    run_p.add_argument(
        "--profile-out",
        default=None,
        metavar="PATH",
        help="with --profile: also dump the raw pstats file for offline "
        "analysis (per-variant suffix when several variants run)",
    )
    run_p.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a JSONL adaptation trace (per-variant suffix when "
        "several variants run)",
    )
    run_p.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write Prometheus textfile metrics at end of run",
    )

    fig_p = sub.add_parser("figures", help="regenerate a paper figure/table")
    fig_p.add_argument("which", choices=FIGURES)
    fig_p.add_argument("--seed", type=int, default=42)
    fig_p.add_argument(
        "--backend",
        choices=ENGINE_BACKENDS,
        default=None,
        help="engine backend for figures that run variants (fig8-fig12); "
        "default: the config's engine_backend",
    )
    fig_p.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write per-variant JSONL traces for figures that run variants",
    )

    trace_p = sub.add_parser(
        "trace", help="render the adaptation timeline of a JSONL trace"
    )
    trace_p.add_argument("path", help="trace file written by --trace-out")
    trace_p.add_argument(
        "--validate-only",
        action="store_true",
        help="schema-check every record and report the count; no timeline",
    )

    fuzz_p = sub.add_parser(
        "fuzz", help="run a seeded invariant-checking fuzz campaign"
    )
    fuzz_p.add_argument(
        "--seeds", type=int, default=25,
        help="number of generated scenarios (seeds base..base+N-1)",
    )
    fuzz_p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (shared-nothing seed shards)",
    )
    fuzz_p.add_argument("--base-seed", type=int, default=0)
    fuzz_p.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the merged campaign report as JSON",
    )
    fuzz_p.add_argument(
        "--artifact-dir", default=None, metavar="DIR",
        help="shrink failing scenarios and write one replayable repro "
        "artifact per violated invariant class",
    )
    fuzz_p.add_argument(
        "--replay", default=None, metavar="FILE",
        help="replay a repro artifact instead of running a campaign",
    )
    fuzz_p.add_argument(
        "--backend",
        choices=ENGINE_BACKENDS,
        default=None,
        help="force every scenario onto one engine backend (default: "
        "each scenario's own configuration)",
    )
    fuzz_p.add_argument(
        "--min-exercise", type=int, default=None, metavar="N",
        help="fail the campaign when any invariant class is exercised "
        "fewer than N times (replay-digest and crash are not counted)",
    )

    sub.add_parser("list", help="list queries, variants, dynamics, figures")
    return parser


def _resolve_variants(names: list[str] | None) -> list[VariantSpec]:
    if not names:
        return [ALL_NAMED["WASP"]]
    specs = []
    for name in names:
        if name not in ALL_NAMED:
            raise WaspError(
                f"unknown variant {name!r}; choose from {sorted(ALL_NAMED)}"
            )
        specs.append(ALL_NAMED[name])
    return specs


def _profiled_run(
    run: ExperimentRun, duration: float, dynamics, profile_out: str | None = None
):
    """Run under cProfile; print wall time, tick rate and top hot spots."""
    import cProfile
    import io
    import pstats
    import time

    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    recorder = run.run(duration, dynamics)
    profiler.disable()
    wall = time.perf_counter() - t0
    ticks = duration / TICK_S
    print(
        f"  profile: {wall:.3f}s wall, "
        f"{ticks / wall if wall > 0 else float('inf'):.0f} ticks/s"
    )
    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    if profile_out:
        stats.dump_stats(profile_out)
        print(f"  pstats -> {profile_out}")
    stats.sort_stats("cumulative").print_stats(15)
    # Skip pstats' preamble; indent the table under the variant header.
    lines = out.getvalue().splitlines()
    start = next(
        (i for i, line in enumerate(lines) if "ncalls" in line), 0
    )
    for line in lines[start:]:
        if line.strip():
            print(f"  {line}")
    return recorder


def _variant_path(path: str, variant_name: str, multi: bool) -> str:
    """Suffix ``path`` with the variant name when several variants run."""
    if not multi:
        return path
    slug = variant_name.lower().replace(" ", "-").replace("/", "-")
    root, dot, ext = path.rpartition(".")
    if dot:
        return f"{root}.{slug}.{ext}"
    return f"{path}.{slug}"


def _config(backend: str | None) -> WaspConfig:
    """The paper defaults, with ``--backend`` applied when given."""
    config = WaspConfig.paper_defaults()
    if backend is None:
        return config
    return config.with_overrides(engine_backend=backend)


def cmd_run(args: argparse.Namespace) -> int:
    variants = _resolve_variants(args.variant)
    multi = len(variants) > 1
    config = _config(args.backend)
    print(
        f"query={args.query} dynamics={args.dynamics} "
        f"duration={args.duration:.0f}s seed={args.seed} "
        f"backend={config.engine_backend}"
    )
    for variant in variants:
        run = launch(args.query, variant, config=config, seed=args.seed)
        if args.trace_out:
            trace_path = _variant_path(args.trace_out, variant.name, multi)
            run.attach_trace(trace_path)
            print(f"  trace -> {trace_path}")
        if args.metrics_out:
            metrics_path = _variant_path(
                args.metrics_out, variant.name, multi
            )
            run.attach_metrics(metrics_path)
            print(f"  metrics -> {metrics_path}")
        dynamics = DYNAMICS[args.dynamics](run.rngs)
        if args.profile:
            profile_out = (
                _variant_path(args.profile_out, variant.name, multi)
                if args.profile_out
                else None
            )
            recorder = _profiled_run(run, args.duration, dynamics, profile_out)
        else:
            if args.profile_out:
                print(
                    "note: --profile-out ignored without --profile",
                    file=sys.stderr,
                )
            recorder = run.run(args.duration, dynamics)
        run.obs.close()
        print(f"\n--- {variant.name} ---")
        print(f"  mean delay      : {recorder.mean_delay():10.2f} s")
        print(f"  p95 delay       : {recorder.delay_percentile(95):10.2f} s")
        print(f"  p99 delay       : {recorder.delay_percentile(99):10.2f} s")
        print(
            f"  processed       : "
            f"{recorder.processed_fraction() * 100:9.1f} %"
        )
        if run.manager is not None and run.manager.history:
            print("  adaptations:")
            for record in run.manager.history:
                print(
                    f"    t={record.t_s:6.0f}s {record.kind.value:11s} "
                    f"{record.stage:30s} transition={record.transition_s:.1f}s"
                )
    return 0


def _figures_runs(
    which: str,
    seed: int,
    trace_out: str | None = None,
    backend: str | None = None,
):
    scenario = FIGURE_SCENARIOS[which]()
    instrument = None
    if trace_out:
        multi = len(scenario.variants) > 1

        def instrument(name: str, run: ExperimentRun) -> None:
            run.attach_trace(_variant_path(trace_out, name, multi))

    return run_variants(
        scenario, config=_config(backend), seed=seed, instrument=instrument
    )


def cmd_figures(args: argparse.Namespace) -> int:
    which, seed = args.which, args.seed
    trace_out = getattr(args, "trace_out", None)
    backend = getattr(args, "backend", None)
    if which in FIGURE_SCENARIOS:
        runs = _figures_runs(which, seed, trace_out, backend)
    else:
        for flag, value in (("--backend", backend), ("--trace-out", trace_out)):
            if value:
                print(
                    f"note: {flag} ignored for {which} (no variant runs)",
                    file=sys.stderr,
                )
    if which == "fig2":
        print(fig.fig2_report(oregon_ohio_trace(np.random.default_rng(seed))))
    elif which == "fig7":
        print(fig.fig7_report(paper_testbed(np.random.default_rng(seed))))
    elif which == "fig8":
        print(fig.fig8_report(runs, "topk-topics"))
    elif which == "fig9":
        print(fig.fig9_report(runs, "topk-topics"))
    elif which == "fig10":
        print(fig.fig10_report(runs))
    elif which == "fig11":
        print(fig.fig11_report(runs))
    elif which == "fig12":
        print(fig.fig12_report(runs))
    elif which == "fig13":
        print(
            fig.fig13_report(
                [
                    controlled_adaptation(variant, FIG13_STATE_MB)
                    for variant in migration_variants()
                ]
            )
        )
    elif which == "fig14":
        print(fig.fig14_report(fig14_rows()))
    elif which == "table2":
        print(fig.table2_report())
    elif which == "table3":
        rngs = RngRegistry(seed)
        topology = paper_testbed(rngs.stream("topology"))
        print(fig.table3_report(all_queries(topology, rngs.stream("query"))))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .obs import read_jsonl, render_timeline, require_valid

    records = read_jsonl(args.path)
    if args.validate_only:
        for record in records:
            require_valid(record)
        print(f"{args.path}: {len(records)} records, all valid")
        return 0
    print(render_timeline(records))
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .fuzz import (
        generate_scenario,
        load_artifact,
        run_campaign,
        run_scenario,
        shrink_scenario,
        write_artifact,
    )

    if args.replay:
        if args.min_exercise is not None:
            raise WaspError(
                "--min-exercise applies to campaigns, not --replay"
            )
        spec, payload = load_artifact(args.replay)
        if args.backend:
            import dataclasses

            spec = dataclasses.replace(
                spec,
                config_overrides={
                    **spec.config_overrides,
                    "engine_backend": args.backend,
                },
            )
        print(
            f"replaying {args.replay}: seed={spec.seed} "
            f"pinned-invariant={payload.get('invariant')}"
        )
        result = run_scenario(spec)
        print(f"  digest: {result.digest}")
        print(f"  ticks : {result.ticks}")
        if result.ok:
            print("  violations: none")
            return 0
        for v in result.violations:
            print(f"  t={v.t_s:8.1f}s {v.invariant:18s} {v.detail}")
        return 1

    report = run_campaign(
        args.seeds,
        base_seed=args.base_seed,
        jobs=args.jobs,
        backend=args.backend,
    )
    backend_note = f", backend={args.backend}" if args.backend else ""
    print(
        f"campaign: {args.seeds} seeds (base {args.base_seed}), "
        f"{args.jobs} job(s){backend_note}"
    )
    print(f"  ticks checked : {sum(r.ticks for r in report.results)}")
    totals = report.totals()
    print("  checks exercised:")
    for invariant, count in report.checks().items():
        print(f"    {invariant:20s} {count}")
    print(f"  failing seeds : {len(report.failing)}/{args.seeds}")
    for invariant, count in totals.items():
        print(f"    {invariant:20s} {count}")
    missed: dict[str, int] = {}
    if args.min_exercise is not None:
        missed = report.under_exercised(args.min_exercise)
        print(
            f"  exercised < {args.min_exercise}: "
            f"{len(missed)} invariant class(es)"
        )
        for invariant, count in missed.items():
            print(f"    {invariant:20s} {count}")
    if args.out:
        Path(args.out).write_text(report.to_json())
        print(f"  report -> {args.out}")
    if args.artifact_dir and report.failing:
        outdir = Path(args.artifact_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        pinned: set[str] = set()
        for result in report.failing:
            for invariant in result.invariants_hit():
                if invariant in pinned:
                    continue
                pinned.add(invariant)
                shrunk, violations = shrink_scenario(
                    generate_scenario(result.seed), invariant
                )
                path = outdir / f"{invariant}-seed{result.seed}.json"
                write_artifact(path, shrunk, violations, invariant=invariant)
                print(f"  repro -> {path}")
    return 0 if report.ok and not missed else 1


def cmd_list(args: argparse.Namespace) -> int:
    del args
    print("queries  :", ", ".join(QUERIES))
    print("variants :", ", ".join(sorted(ALL_NAMED)))
    print("dynamics :", ", ".join(sorted(DYNAMICS)))
    print("figures  :", ", ".join(FIGURES))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "figures":
            return cmd_figures(args)
        if args.command == "trace":
            return cmd_trace(args)
        if args.command == "fuzz":
            return cmd_fuzz(args)
        return cmd_list(args)
    except WaspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
