"""The engine-kept window sums against the previous report-folding monitor.

Every :class:`~repro.core.controller.ReconfigurationManager` built in these
tests gets an oracle: a :class:`ReferenceMetricMonitor` (the monitor as it
was when it buffered every tick report and folded the buffer at read
time) observes the same reports, and every ``collect`` and ``peek`` of the
live monitor must return a window whose ``repr`` - every value and every
dict's key order - equals the reference's.
"""

import dataclasses

import pytest

from repro.baselines.variants import wasp
from repro.chaos import ChaosInjector, SiteCrash
from repro.config import WaspConfig
from repro.core import controller
from repro.core.actions import ReassignAction
from repro.core.transaction import AdaptationPoint
from repro.experiments.harness import ExperimentRun
from repro.experiments.scenarios import (
    FIG13_STATE_MB,
    MIGRATION_RUN_DURATION_S,
    MIGRATION_TRIGGER_AT_S,
    bottleneck_dynamics,
    build_migration_run,
    fig8_scenario,
    fig10_scenario,
    fig11_scenario,
    force_reassignment,
    migration_variants,
)
from repro.fuzz.campaign import _execute
from repro.fuzz.generate import generate_scenario
from repro.fuzz.invariants import InvariantChecker
from repro.sim.rng import RngRegistry

from .reference_monitor import ReferenceMetricMonitor


class _Oracle:
    """Shadows one live monitor with the reference monitor."""

    def __init__(self, monitor) -> None:
        reference = ReferenceMetricMonitor()
        self.collects = 0
        self.peeks = 0
        observe, collect, peek = monitor.observe, monitor.collect, monitor.peek

        def observed(report):
            observe(report)
            reference.observe(report)

        def collected():
            window = collect()
            self._check(window, reference.collect())
            self.collects += 1
            return window

        def peeked():
            window = peek()
            self._check(window, reference.peek())
            self.peeks += 1
            return window

        monitor.observe = observed
        monitor.collect = collected
        monitor.peek = peeked

    @staticmethod
    def _check(window, expected) -> None:
        assert repr(window) == repr(expected)


@pytest.fixture
def oracles(monkeypatch):
    """Every manager built while the fixture is active gets an oracle."""
    installed: list[_Oracle] = []
    init = controller.ReconfigurationManager.__init__

    def patched(self, *args, **kwargs):
        init(self, *args, **kwargs)
        installed.append(_Oracle(self.monitor))

    monkeypatch.setattr(controller.ReconfigurationManager, "__init__", patched)
    return installed


def _scenario_run(scenario, variant, seed, config=None):
    rngs = RngRegistry(seed)
    topology = scenario.make_topology(rngs)
    query = scenario.make_query(topology, rngs)
    run = ExperimentRun(topology, query, variant, config=config, rngs=rngs)
    run.set_dynamics(scenario.make_dynamics(rngs))
    return run


@pytest.mark.parametrize(
    "scenario",
    [
        fig8_scenario("ysb-advertising"),
        fig8_scenario("topk-topics"),
        fig8_scenario("events-of-interest"),
        fig10_scenario(),
        fig11_scenario(),
    ],
    ids=["fig8-ysb", "fig8-topk", "fig8-eoi", "fig10", "fig11"],
)
def test_paper_figures_at_seed_42(oracles, scenario):
    for variant in scenario.variants:
        _scenario_run(scenario, variant, 42).run(scenario.duration_s)
    assert oracles
    assert sum(o.collects for o in oracles) >= 10 * len(oracles)


def test_figure_13_migrations(oracles):
    for variant in migration_variants():
        run = build_migration_run(variant, FIG13_STATE_MB, seed=20)
        run.run(MIGRATION_TRIGGER_AT_S)
        force_reassignment(run)
        run.run(MIGRATION_RUN_DURATION_S - MIGRATION_TRIGGER_AT_S)
    # The destination search reads the window without resetting it.
    assert len(oracles) == len(migration_variants())
    assert all(o.peeks for o in oracles)


def test_fuzz_seeds(oracles):
    for seed in range(50):
        _execute(generate_scenario(seed), InvariantChecker())
    assert sum(o.collects for o in oracles) > 200


def test_fuzz_seeds_on_the_dense_backend(oracles):
    for seed in range(12):
        spec = generate_scenario(seed)
        overrides = {**spec.config_overrides, "engine_backend": "dense"}
        spec = dataclasses.replace(spec, config_overrides=overrides)
        _execute(spec, InvariantChecker())
    assert sum(o.collects for o in oracles) > 50


def test_dense_backend_fig8(oracles):
    config = WaspConfig.paper_defaults().with_overrides(engine_backend="dense")
    scenario = fig8_scenario("events-of-interest")
    rngs = RngRegistry(42)
    topology = scenario.make_topology(rngs)
    query = scenario.make_query(topology, rngs)
    run = ExperimentRun(topology, query, wasp(), config=config, rngs=rngs)
    run.run(900.0, bottleneck_dynamics())
    assert run.manager.history  # the dense model recompiled mid-run
    assert oracles[0].collects == 22


def test_reassignment_crash_and_rollback_inside_one_window(oracles):
    scenario = fig8_scenario("ysb-advertising")
    run = _scenario_run(scenario, wasp(), 11)
    stage = next(
        s
        for s in run.runtime.plan.topological_stages()
        if s.stateful and s.parallelism > 0
    )
    destination = next(
        name
        for name, free in sorted(run.topology.available_slots().items())
        if free > 0 and name not in stage.placement()
    )
    chaos = ChaosInjector(run.rngs.stream("chaos"))
    chaos.at_point(
        AdaptationPoint.MIGRATION_IN_FLIGHT,
        SiteCrash(destination, duration_s=20.0),
        stage=stage.name,
    )
    run.attach_chaos(chaos)
    run.run(50.0)  # one round at t=40; the next window opens at t=41
    run.manager.execute(
        ReassignAction(stage.name, "window oracle", {destination: 1}),
        now_s=run.clock.now_s,
    )
    outcomes = [(a.t_s, a.outcome) for a in run.manager.attempt_log]
    assert (50.0, "rolled-back") in outcomes
    run.run(80.0)  # rounds at t=80 and t=120 read the disturbed windows
    assert oracles[0].collects == 3
