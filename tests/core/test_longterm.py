"""Tests for repro.core.longterm - background re-planning (Section 6.2)."""

import pytest

from repro.baselines.variants import wasp_long_term
from repro.core.actions import ActionKind
from repro.core.longterm import (
    LongTermConfig,
    LongTermPlanner,
    OracleForecaster,
    SeasonalNaiveForecaster,
)
from repro.errors import AdaptationRollbackError, ConfigurationError
from repro.experiments.harness import ExperimentRun
from repro.experiments.scenarios import fig8_scenario, live_dynamics
from repro.network.traces import paper_testbed
from repro.sim.rng import RngRegistry
from repro.workloads.base import ShapedWorkload
from repro.workloads.queries import topk_topics


class TestForecasters:
    def test_oracle_reads_workload(self):
        workload = ShapedWorkload({"a": 100.0, "b": 200.0})
        oracle = OracleForecaster(workload, ["a", "b"])
        assert oracle.forecast(0.0) == {"a": 100.0, "b": 200.0}

    def test_seasonal_naive_repeats_last_season(self):
        forecaster = SeasonalNaiveForecaster(season_s=100.0)
        forecaster.observe(10.0, {"a": 1.0})
        forecaster.observe(50.0, {"a": 5.0})
        forecaster.observe(110.0, {"a": 11.0})
        # t=150 minus one season = t=50 -> the 5.0 observation.
        assert forecaster.forecast(150.0) == {"a": 5.0}

    def test_seasonal_naive_fallback_before_full_season(self):
        forecaster = SeasonalNaiveForecaster(season_s=1000.0)
        forecaster.observe(10.0, {"a": 1.0})
        assert forecaster.forecast(20.0) == {"a": 1.0}

    def test_seasonal_naive_empty(self):
        assert SeasonalNaiveForecaster(10.0).forecast(100.0) == {}

    def test_seasonal_naive_rejects_stale_observations(self):
        forecaster = SeasonalNaiveForecaster(season_s=10.0)
        forecaster.observe(10.0, {"a": 1.0})
        forecaster.observe(5.0, {"a": 99.0})  # out of order: ignored
        assert forecaster.forecast(20.0) == {"a": 1.0}

    def test_invalid_season_rejected(self):
        with pytest.raises(ConfigurationError):
            SeasonalNaiveForecaster(0.0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            LongTermConfig(period_s=0.0)


class TestBackgroundLoop:
    def make_run(self, seed=42):
        rngs = RngRegistry(seed)
        topo = paper_testbed(rngs.stream("topology"))
        query = topk_topics(topo, rngs.stream("query"))
        return ExperimentRun(topo, query, wasp_long_term(), rngs=rngs)

    def test_harness_attaches_planner(self):
        run = self.make_run()
        assert run.long_term is not None

    def test_no_replan_without_clear_improvement(self):
        """Hysteresis: a stable world never triggers proactive churn."""
        run = self.make_run()
        run.run(30)
        record = run.long_term.background_round(30.0)
        # Either nothing (plan already optimal for the forecast) or one
        # clearly-better plan; never an error.
        assert record is None or record.kind.value == "re-plan"

    def test_skips_while_transitioning(self):
        run = self.make_run()
        run.run(10)
        stage = next(
            s for s in run.runtime.plan.topological_stages()
            if not s.is_source
        )
        run.runtime.suspend_stage(stage.name, until_s=1_000.0)
        assert run.long_term.background_round(20.0) is None

    def test_runs_to_completion_with_background_loop(self):
        """The loop coexists with the reactive controller end-to-end."""
        run = self.make_run()
        recorder = run.run(700)
        assert recorder.processed_fraction() == 1.0
        assert recorder.mean_delay() < 5.0

    def test_rolled_back_replan_is_not_recorded(self, monkeypatch):
        """A proactive re-plan whose every attempt rolls back leaves no
        record: the round returns None and later rounds keep running."""
        scenario = fig8_scenario("events-of-interest")
        rngs = RngRegistry(42)
        topo = scenario.make_topology(rngs)
        run = ExperimentRun(
            topo, scenario.make_query(topo, rngs), wasp_long_term(), rngs=rngs
        )
        verify = run.manager._verify

        def refuse_replans(record):
            if record.kind is ActionKind.REPLAN:
                raise AdaptationRollbackError("verification refused")
            verify(record)

        monkeypatch.setattr(run.manager, "_verify", refuse_replans)
        # At seed 42 the background loop proposes a re-plan at t = 1200 s;
        # the reactive round at 1240 s then reads the re-plan cooldown.
        run.run(1240, live_dynamics(rngs))
        abandoned = [
            a for a in run.manager.attempt_log if a.outcome == "abandoned"
        ]
        assert [(a.t_s, a.stage) for a in abandoned] == [
            (1200.0, "events-of-interest#3")
        ]
        assert not run.long_term.history
        assert all(
            r.kind is not ActionKind.REPLAN for r in run.manager.history
        )
