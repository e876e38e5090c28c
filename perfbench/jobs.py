"""The benchmark's three workloads.

Each workload turns its seed into inputs and exposes two things: a
``setup`` (building what one unit of work runs on, timed on its own) and a
``unit`` (one whole unit of work, which also builds its own runs).  A unit
returns one :class:`Job` per job it ran, each with a fingerprint of exact
work counts and its timing, plus any figure-level checks.

* ``paper-eval``: a unit is the Section 8 figure sweep (20 runs); every
  unit repeats the same inputs, so fingerprints must repeat.
* ``fuzz-campaign``: a unit is a block of consecutive campaign seeds; the
  next unit takes the next block.  Each seed is a checked run plus an
  unchecked replay, which must agree.
* ``shuffle-64``: a unit is one fixed-length run of bare engine ticks on
  the 64-site all-to-all shuffle world; every unit repeats the same world.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

from benchmarks.perf.scale import build_world
from instrument import Timing, after_tick, sample_queues
from repro.config import WaspConfig
from repro.engine.dense import create_runtime
from repro.experiments.figures import measure_overhead
from repro.experiments.harness import ExperimentRun
from repro.experiments.scenarios import (
    FIG13_STATE_MB,
    MIGRATION_RUN_DURATION_S,
    MIGRATION_TRIGGER_AT_S,
    build_migration_run,
    fig8_scenario,
    fig10_scenario,
    fig11_scenario,
    force_reassignment,
    migration_variants,
)
from repro.fuzz import campaign
from repro.fuzz.generate import build_run, generate_scenario
from repro.sim.rng import RngRegistry

import shapes


@dataclass
class Job:
    label: str
    #: Exact work counts; two runs of the same code must agree on them.
    fingerprint: object
    timing: Timing
    ok: bool = True


@dataclass
class Unit:
    jobs: list[Job]
    #: Checks over the unit as a whole: ``(label, failed expectations)``.
    checks: list[tuple[str, list[str]]] = field(default_factory=list)


# ---------------------------------------------------------------------- #
# paper-eval
# ---------------------------------------------------------------------- #

FIG8_QUERIES = ("ysb-advertising", "topk-topics", "events-of-interest")

#: The figure suites' seed for Figures 8-11.  The figure shapes are
#: checked at this benchmark seed only: at other seeds the random testbed
#: differs and the paper's shapes are not expected to hold run for run.
SHAPE_SEED = 42

#: Figure 13 is a controlled experiment that forces one migration to a
#: feasible edge site, which not every testbed draw has; it always runs on
#: its suite's testbed (``build_migration_run``'s default seed).
MIGRATION_SEED = 20


def figure_seed(seed: int, figure: int) -> int:
    """The seed of the ``figure``-th (0-based) of Figures 8-11.

    At the benchmark seed 42 every figure runs at the suite seed.  At any
    other seed each figure gets a testbed of its own, so one run averages
    over several testbeds instead of riding on a single draw.
    """
    return (SHAPE_SEED + (figure + 1) * (seed - SHAPE_SEED)) % 2**32


def _scenario_run(scenario, variant, seed: int) -> ExperimentRun:
    """One line of a figure, wired as ``run_variants`` wires it."""
    rngs = RngRegistry(seed)
    topology = scenario.make_topology(rngs)
    query = scenario.make_query(topology, rngs)
    run = ExperimentRun(topology, query, variant, rngs=rngs)
    run.set_dynamics(scenario.make_dynamics(rngs))
    return run


def _drive_scenario(scenario, run: ExperimentRun):
    run.run(scenario.duration_s)
    run.obs.close()
    return run


def _drive_migration(run: ExperimentRun):
    run.run(MIGRATION_TRIGGER_AT_S)
    destination = force_reassignment(run)
    run.run(MIGRATION_RUN_DURATION_S - MIGRATION_TRIGGER_AT_S)
    return measure_overhead(run, run.manager.history[-1], destination=destination)


class PaperEval:
    """The Figure 8 (three queries), 10, 11 and 13 sweep: 20 runs."""

    name = "paper-eval"
    repeats = True
    shape_checks = {
        **{f"fig8-{q}": shapes.fig8 for q in FIG8_QUERIES},
        "fig10": shapes.fig10,
        "fig11": shapes.fig11,
        "fig13": partial(shapes.fig13, state_mb=FIG13_STATE_MB),
    }

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _runs(self):
        """``(figure, variant, build, drive)`` for each run of the sweep."""
        scenarios = [(f"fig8-{q}", fig8_scenario(q)) for q in FIG8_QUERIES]
        scenarios += [("fig10", fig10_scenario()), ("fig11", fig11_scenario())]
        for index, (figure, scenario) in enumerate(scenarios):
            seed = figure_seed(self.seed, index)
            for variant in scenario.variants:
                yield (
                    figure,
                    variant.name,
                    partial(_scenario_run, scenario, variant, seed),
                    partial(_drive_scenario, scenario),
                )
        for variant in migration_variants():
            yield (
                "fig13",
                variant.name,
                partial(
                    build_migration_run,
                    variant,
                    FIG13_STATE_MB,
                    seed=MIGRATION_SEED,
                ),
                _drive_migration,
            )

    def setup(self) -> None:
        for _figure, _variant, build, _drive in self._runs():
            build()

    def unit(self, index: int, probe) -> Unit:
        jobs: list[Job] = []
        outputs: dict[str, dict] = {}
        for figure, variant, build, drive in self._runs():
            label = f"{figure}/{variant}"

            def job(build=build, drive=drive):
                run = build()
                return run, drive(run), campaign.recorder_digest(run.recorder)

            result, timing = probe.measure(job)
            if isinstance(result, Exception):
                crash = f"{type(result).__name__}: {result}"
                jobs.append(Job(label, crash, timing, ok=False))
                continue
            run, output, digest = result
            outputs.setdefault(figure, {})[variant] = output
            jobs.append(Job(label, (digest, probe.counts(run)), timing))
        checks = []
        if index == 0 and self.seed == SHAPE_SEED:
            for figure, check in self.shape_checks.items():
                try:
                    failed = check(outputs[figure])
                except KeyError as missing:
                    failed = [f"run {missing} did not finish"]
                checks.append((figure, failed))
        return Unit(jobs, checks)


# ---------------------------------------------------------------------- #
# fuzz-campaign
# ---------------------------------------------------------------------- #

#: Consecutive campaign seeds per unit.
FUZZ_BLOCK = 10

#: Campaign seeds come from ``0 .. FUZZ_SEED_POOL - 1``, every one of which
#: is violation-free at the commit that defined this benchmark (seeds 819
#: and 997 are known ``scale-law`` findings), so a violation here is a
#: regression rather than a lucky draw.
FUZZ_SEED_POOL = 800


class FuzzCampaign:
    """``run_campaign`` over consecutive seeds, one seed per call (so each
    seed is timed): benchmark seed ``S`` starts at campaign seed
    ``S * FUZZ_BLOCK``, wrapping around the pool."""

    name = "fuzz-campaign"
    repeats = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: Invariant -> times evaluated, over every unit run so far.
        self.checks: dict[str, int] = {}
        self.violations = 0

    def _base_seed(self, index: int) -> int:
        return (self.seed + index) * FUZZ_BLOCK % FUZZ_SEED_POOL

    def setup(self) -> None:
        """Generate and build the runs of the first four units' seeds
        (more than one unit, so set-up time does not hinge on a few
        worlds)."""
        for index in range(4):
            base = self._base_seed(index)
            for seed in range(base, base + FUZZ_BLOCK):
                build_run(generate_scenario(seed))

    def unit(self, index: int, probe) -> Unit:
        jobs = []
        base = self._base_seed(index)
        for seed in range(base, base + FUZZ_BLOCK):
            first_run = len(probe.runs)
            report, timing = probe.measure(
                partial(campaign.run_campaign, 1, base_seed=seed, jobs=1)
            )
            if isinstance(report, Exception):
                crash = f"{type(report).__name__}: {report}"
                jobs.append(Job(f"seed {seed}", crash, timing, ok=False))
                continue
            result = report.results[0]
            for invariant, n in result.checks.items():
                self.checks[invariant] = self.checks.get(invariant, 0) + n
            self.violations += len(result.violations)
            # The checked run and its replay: same code, same spec, so the
            # same work counts.
            runs = probe.runs[first_run:]
            replayed = len(runs) == 2 and runs[0] == runs[1]
            jobs.append(
                Job(
                    f"seed {seed}",
                    (json.dumps(result.to_dict(), sort_keys=True), runs[:1]),
                    timing,
                    ok=result.ok and replayed,
                )
            )
        return Unit(jobs)


# ---------------------------------------------------------------------- #
# shuffle-64
# ---------------------------------------------------------------------- #

SHUFFLE_SITES = 64
#: Ticks before timing starts, then ticks timed.  The backlog grows every
#: tick, so a tick's cost depends on how far into the run it is: the run
#: length is part of the workload and fixed here.  The timed ticks
#: (t = 41..100 s) hold exactly one 40 s monitoring instant.
SHUFFLE_WARMUP = 40
SHUFFLE_MEASURE = 60


class Shuffle64:
    """Bare ``runtime.tick()`` on the shuffle world, default backend."""

    name = "shuffle-64"
    repeats = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = WaspConfig.paper_defaults()

    def setup(self):
        topology, plan, workload = build_world(SHUFFLE_SITES, 1, self.seed)
        return create_runtime(topology, plan, workload, self.config)

    def _run(self, probe, counts):
        runtime = self.setup()
        interval = self.config.monitor_interval_s
        sink_events = 0.0
        for tick in range(SHUFFLE_WARMUP + SHUFFLE_MEASURE):
            start = perf_counter()
            report = runtime.tick()
            wall = perf_counter() - start
            if tick >= SHUFFLE_WARMUP:
                # No controller runs here; the tick at which a round would
                # be due is kept apart so round_step_ms reads the bare tick.
                probe.record_step(wall, report.t_s % interval == 0)
            after_tick(counts, runtime)
            sink_events += report.sink_events
        sample_queues(counts, runtime)
        return runtime, sink_events

    def unit(self, index: int, probe) -> Unit:
        counts = probe.new_counts(self.name)
        result, timing = probe.measure(partial(self._run, probe, counts))
        if isinstance(result, Exception):
            crash = f"{type(result).__name__}: {result}"
            return Unit([Job(self.name, crash, timing, ok=False)])
        # The runtime is returned so that freeing its half-million queued
        # parcels falls outside the timed job.
        runtime, sink_events = result
        fingerprint = (sink_events, runtime.total_backlog(), counts)
        return Unit([Job(self.name, fingerprint, timing)])


WORKLOADS = {w.name: w for w in (PaperEval, FuzzCampaign, Shuffle64)}
