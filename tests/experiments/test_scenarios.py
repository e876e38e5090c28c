"""Tests for repro.experiments.scenarios - the Section-8 scenario builders."""

import pytest

from repro.baselines.variants import wasp
from repro.core.migration import MigrationStrategy
from repro.errors import AdaptationError, AdaptationRollbackError, WaspError
from repro.experiments.scenarios import (
    FIG13_STATE_MB,
    FIG14_STATE_SIZES_MB,
    MIGRATION_STAGE,
    MIGRATION_TRIGGER_AT_S,
    bottleneck_dynamics,
    build_migration_run,
    fig8_scenario,
    fig10_scenario,
    fig11_scenario,
    force_partitioned_adaptation,
    force_reassignment,
    live_dynamics,
    make_query_by_name,
    migration_variants,
    technique_dynamics,
)
from repro.sim.rng import RngRegistry


class TestDynamicsTimelines:
    def test_section84_timeline(self):
        dyn = bottleneck_dynamics()
        workload = dyn.workload_schedule
        bandwidth = dyn.bandwidth_schedule
        assert workload.factor(100) == 1.0
        assert workload.factor(350) == 2.0
        assert workload.factor(650) == 1.0
        assert bandwidth.factor(950) == 0.5
        assert bandwidth.factor(1250) == 1.0

    def test_section85_vectors(self):
        dyn = technique_dynamics()
        assert [dyn.workload_schedule.factor(t) for t in
                (0, 350, 650, 950, 1250)] == [1.0, 2.0, 2.0, 1.0, 1.0]
        assert [dyn.bandwidth_schedule.factor(t) for t in
                (0, 350, 650, 950, 1250)] == [1.0, 1.0, 0.5, 0.5, 1.0]

    def test_section86_bounds_and_failure(self):
        dyn = live_dynamics(RngRegistry(0))
        for point in dyn.bandwidth_schedule.breakpoints():
            assert 0.51 <= point.factor <= 2.36
        for point in dyn.workload_schedule.breakpoints():
            assert 0.8 <= point.factor <= 2.4
        assert dyn.failures[0].t_s == 540.0
        assert dyn.failures[0].duration_s == 60.0


class TestScenarioShapes:
    def test_fig8_variants(self):
        scenario = fig8_scenario("topk-topics")
        assert [v.name for v in scenario.variants] == [
            "No Adapt", "Degrade", "WASP",
        ]
        assert scenario.duration_s == 1500.0

    def test_fig10_variants(self):
        scenario = fig10_scenario()
        assert [v.name for v in scenario.variants] == [
            "No Adapt", "Re-assign", "Scale", "Re-plan",
        ]

    def test_fig11_variants(self):
        scenario = fig11_scenario()
        assert scenario.duration_s == 1800.0

    def test_unknown_query_rejected(self):
        with pytest.raises(WaspError):
            make_query_by_name("nope")

    def test_migration_variants_cover_strategies(self):
        strategies = {v.migration_strategy for v in migration_variants()}
        assert strategies == set(MigrationStrategy)

    def test_fig14_state_sizes(self):
        assert FIG14_STATE_SIZES_MB == (0.0, 32.0, 64.0, 128.0, 256.0, 512.0)
        assert FIG13_STATE_MB == 60.0


class TestControlledMigration:
    def test_forced_reassignment_moves_stage(self):
        run = build_migration_run(wasp(), 32.0)
        before = set(run.runtime.plan.stage(MIGRATION_STAGE).placement())
        run.run(MIGRATION_TRIGGER_AT_S)
        destination = force_reassignment(run)
        after = set(run.runtime.plan.stage(MIGRATION_STAGE).placement())
        assert after == {destination}
        assert after != before

    def test_forced_reassignment_needs_manager(self, testbed, rngs):
        from repro.baselines.variants import no_adapt
        from repro.experiments.harness import ExperimentRun
        from repro.workloads.queries import topk_topics

        query = topk_topics(testbed, rngs.stream("query"))
        run = ExperimentRun(testbed, query, no_adapt(), rngs=rngs)
        with pytest.raises(WaspError):
            force_reassignment(run)

    def test_controlled_state_size_pinned(self):
        run = build_migration_run(wasp(), 256.0)
        assert run.state_store.total_mb(MIGRATION_STAGE) == pytest.approx(
            256.0
        )
        run.run(100)
        assert run.state_store.total_mb(MIGRATION_STAGE) == pytest.approx(
            256.0
        )

    def test_stage_hosted_at_edge(self):
        """Section 8.7 studies migration over public-Internet links."""
        run = build_migration_run(wasp(), 64.0)
        sites = run.runtime.plan.stage(MIGRATION_STAGE).sites()
        assert all(run.topology.site(s).is_edge for s in sites)

    def test_partitioned_scales_out_for_large_state(self):
        run = build_migration_run(wasp(), 512.0)
        run.run(MIGRATION_TRIGGER_AT_S)
        force_partitioned_adaptation(run, t_threshold_s=30.0)
        assert run.runtime.plan.stage(MIGRATION_STAGE).parallelism > 1

    def test_partitioned_keeps_small_state_whole(self):
        run = build_migration_run(wasp(), 16.0)
        run.run(MIGRATION_TRIGGER_AT_S)
        force_partitioned_adaptation(run, t_threshold_s=30.0)
        record = run.manager.history[-1]
        assert run.runtime.plan.stage(MIGRATION_STAGE).parallelism == 1
        assert record.transition_s < 30.0 + run.config.reconfig_base_overhead_s

    @pytest.mark.parametrize(
        "force", [force_reassignment, force_partitioned_adaptation]
    )
    def test_rolled_back_forced_adaptation_raises(self, force, monkeypatch):
        """When every technique rolls back, the forced experiment names the
        stage it could not adapt instead of recording a missing result."""
        run = build_migration_run(wasp(), FIG13_STATE_MB)
        run.run(MIGRATION_TRIGGER_AT_S)

        def refuse(record):
            raise AdaptationRollbackError("verification refused")

        monkeypatch.setattr(run.manager, "_verify", refuse)
        with pytest.raises(AdaptationError, match=MIGRATION_STAGE):
            force(run)
        assert run.manager.attempt_log[-1].outcome == "abandoned"

    def test_strategy_ordering_on_transition(self):
        """WASP <= Random and WASP <= Distant (Section 8.7.1)."""
        transitions = {}
        for variant in migration_variants():
            run = build_migration_run(variant, FIG13_STATE_MB)
            run.run(MIGRATION_TRIGGER_AT_S)
            force_reassignment(run)
            transitions[variant.name] = run.manager.history[-1].transition_s
        assert transitions["WASP/none"] <= transitions["WASP"]
        assert transitions["WASP"] <= transitions["WASP/random"]
        assert transitions["WASP"] <= transitions["WASP/distant"]
        assert transitions["WASP/random"] <= transitions["WASP/distant"]
