"""Tests for repro.core.diagnosis - the Section 3.2 health conditions."""

import pytest

from repro.config import WaspConfig
from repro.core.diagnosis import Diagnoser, Health
from repro.core.estimator import StageEstimate
from repro.engine.logical import LogicalPlan
from repro.engine.metrics import MetricsWindow, StageMetrics
from repro.engine.operators import filter_, sink, source, window_aggregate
from repro.engine.physical import PhysicalPlan


class StubNetwork:
    """Diagnosis network view over fixed rates/bandwidths."""

    def __init__(self, plan, proc_rate=40_000.0, bandwidth=100.0):
        self._plan = plan
        self._proc_rate = proc_rate
        self._bandwidth = bandwidth

    def bandwidth_mbps(self, src, dst):
        return self._bandwidth

    def site_proc_rate_eps(self, site):
        return self._proc_rate

    def plan_for(self, stage_name):
        return self._plan


def make_plan(agg_tasks=("dc-1",)):
    ops = [
        source("src", "edge-x"),
        filter_("flt", selectivity=0.5),
        window_aggregate("agg", window_s=10, selectivity=0.01, state_mb=5,
                         cost=1.0),
        sink("out"),
    ]
    logical = LogicalPlan.from_edges(
        "q", ops, [("src", "flt"), ("flt", "agg"), ("agg", "out")]
    )
    plan = PhysicalPlan(logical)
    plan.stage("src").add_task("edge-x")
    for site in agg_tasks:
        plan.stage("agg").add_task(site)
    plan.stage("out").add_task("dc-1")
    return plan


def metrics(stage="agg", *, lambda_p=1000.0,
            utilization_capacity=40_000.0, backlog=0.0, growth=0.0,
            net_backlog=None, net_growth=None, net_inflow=None):
    return StageMetrics(
        stage=stage,
        lambda_p=lambda_p,
        capacity_by_site={"dc-1": utilization_capacity},
        input_backlog=backlog,
        input_backlog_growth=growth,
        input_backlog_by_site={"dc-1": backlog} if backlog else {},
        net_backlog=net_backlog or {},
        net_backlog_growth=net_growth or {},
        net_inflow=net_inflow or {},
    )


def window_for(stage_metrics):
    return MetricsWindow(
        t_start_s=0.0,
        t_end_s=40.0,
        offered_eps=0.0,
        source_generation_eps={},
        stages={m.stage: m for m in stage_metrics},
        mean_delay_s=0.0,
    )


def diagnose(plan, stage_metrics, estimates, **config_overrides):
    config = WaspConfig.paper_defaults().with_overrides(**config_overrides)
    diagnoser = Diagnoser(config)
    return diagnoser.diagnose(
        plan, window_for(stage_metrics), estimates, StubNetwork(plan)
    )


class TestHealthy:
    def test_unconstrained_execution_is_healthy(self):
        plan = make_plan()
        result = diagnose(
            plan,
            [metrics(lambda_p=1000.0)],
            {"agg": StageEstimate("agg", 1000.0, 10.0)},
        )
        assert result["agg"].health is Health.HEALTHY

    def test_sources_not_diagnosed(self):
        plan = make_plan()
        result = diagnose(plan, [], {})
        assert "src" not in result

    def test_transient_backlog_tolerated(self):
        """Section 7: transient spikes are ignored - a backlog the stage
        drains within the health window is not a bottleneck."""
        plan = make_plan()
        result = diagnose(
            plan,
            [metrics(backlog=10_000.0, growth=0.0, lambda_p=39_000.0)],
            {"agg": StageEstimate("agg", 30_000.0, 300.0)},
        )
        assert result["agg"].health is Health.HEALTHY


class TestComputeBound:
    def test_expected_rate_above_capacity(self):
        plan = make_plan()
        result = diagnose(
            plan,
            [metrics(lambda_p=40_000.0)],
            {"agg": StageEstimate("agg", 60_000.0, 600.0)},
        )
        assert result["agg"].health is Health.COMPUTE_BOUND
        agg = result["agg"]
        deficit = agg.expected_input_eps - agg.processing_capacity_eps
        assert deficit == pytest.approx(20_000.0)

    def test_large_backlog_at_full_utilization(self):
        plan = make_plan()
        result = diagnose(
            plan,
            [metrics(lambda_p=39_000.0, backlog=200_000.0, growth=5_000.0)],
            {"agg": StageEstimate("agg", 39_000.0, 390.0)},
        )
        assert result["agg"].health is Health.COMPUTE_BOUND

    def test_capacity_reflects_task_count(self):
        plan = make_plan(agg_tasks=("dc-1", "dc-2"))
        result = diagnose(
            plan,
            [metrics(lambda_p=60_000.0)],
            {"agg": StageEstimate("agg", 60_000.0, 600.0)},
        )
        assert result["agg"].processing_capacity_eps == pytest.approx(80_000.0)
        assert result["agg"].health is Health.HEALTHY


class TestNetworkBound:
    def test_growing_net_backlog_flags_link(self):
        plan = make_plan()
        result = diagnose(
            plan,
            [
                metrics(
                    net_backlog={("edge-x", "dc-1"): 50_000.0},
                    net_growth={("edge-x", "dc-1"): 20_000.0},
                    net_inflow={("edge-x", "dc-1"): 10_000.0},
                )
            ],
            {"agg": StageEstimate("agg", 1000.0, 10.0)},
        )
        diagnosis = result["agg"]
        assert diagnosis.health is Health.NETWORK_BOUND
        link = diagnosis.constrained_links[0]
        assert (link.src_site, link.dst_site) == ("edge-x", "dc-1")

    def test_standing_backlog_also_flags(self):
        """A huge non-growing queue keeps emitting stale events and must be
        acted upon (regression for the Re-plan baseline)."""
        plan = make_plan()
        result = diagnose(
            plan,
            [
                metrics(
                    net_backlog={("edge-x", "dc-1"): 10_000_000.0},
                    net_growth={("edge-x", "dc-1"): 0.0},
                )
            ],
            {"agg": StageEstimate("agg", 1000.0, 10.0)},
        )
        assert result["agg"].health is Health.NETWORK_BOUND

    def test_small_standing_backlog_ignored(self):
        plan = make_plan()
        result = diagnose(
            plan,
            [
                metrics(
                    net_backlog={("edge-x", "dc-1"): 10.0},
                    net_growth={("edge-x", "dc-1"): 0.0},
                )
            ],
            {"agg": StageEstimate("agg", 1000.0, 10.0)},
        )
        assert result["agg"].health is Health.HEALTHY

    def test_network_takes_priority_over_compute(self):
        """When both bind, the policy treats it as network-bound (scale-out
        adds compute too)."""
        plan = make_plan()
        result = diagnose(
            plan,
            [
                metrics(
                    lambda_p=40_000.0,
                    net_backlog={("edge-x", "dc-1"): 50_000.0},
                    net_growth={("edge-x", "dc-1"): 20_000.0},
                )
            ],
            {"agg": StageEstimate("agg", 60_000.0, 600.0)},
        )
        assert result["agg"].health is Health.NETWORK_BOUND


class TestWasteful:
    def test_low_utilization_with_spare_task(self):
        plan = make_plan(agg_tasks=("dc-1", "dc-2"))
        result = diagnose(
            plan,
            [metrics(lambda_p=5_000.0, utilization_capacity=80_000.0)],
            {"agg": StageEstimate("agg", 5_000.0, 50.0)},
        )
        assert result["agg"].health is Health.WASTEFUL

    def test_single_task_never_wasteful(self):
        plan = make_plan(agg_tasks=("dc-1",))
        result = diagnose(
            plan,
            [metrics(lambda_p=100.0)],
            {"agg": StageEstimate("agg", 100.0, 1.0)},
        )
        assert result["agg"].health is Health.HEALTHY

    def test_not_wasteful_without_headroom_after_removal(self):
        plan = make_plan(agg_tasks=("dc-1", "dc-2"))
        # 39k expected on 80k capacity is 49% utilization, but one task
        # (40k) cannot absorb it with headroom.
        result = diagnose(
            plan,
            [metrics(lambda_p=39_000.0, utilization_capacity=80_000.0)],
            {"agg": StageEstimate("agg", 39_000.0, 390.0)},
        )
        assert result["agg"].health is Health.HEALTHY

    def test_growing_backlog_not_wasteful(self):
        """Low utilization with spare capacity, but the input queue grew
        over the window: shedding a task now would only add to it."""
        plan = make_plan(agg_tasks=("dc-1", "dc-2"))
        result = diagnose(
            plan,
            [
                metrics(
                    lambda_p=5_000.0,
                    utilization_capacity=80_000.0,
                    backlog=100.0,
                    growth=10.0,
                )
            ],
            {"agg": StageEstimate("agg", 5_000.0, 50.0)},
        )
        assert result["agg"].health is Health.HEALTHY

    def test_constrained_link_not_wasteful(self):
        """Spare compute behind a constrained inbound link is a network
        bottleneck, not waste."""
        plan = make_plan(agg_tasks=("dc-1", "dc-2"))
        result = diagnose(
            plan,
            [
                metrics(
                    lambda_p=5_000.0,
                    utilization_capacity=80_000.0,
                    net_backlog={("edge-x", "dc-1"): 50_000.0},
                    net_growth={("edge-x", "dc-1"): 20_000.0},
                    net_inflow={("edge-x", "dc-1"): 10_000.0},
                )
            ],
            {"agg": StageEstimate("agg", 5_000.0, 50.0)},
        )
        assert result["agg"].health is Health.NETWORK_BOUND

    def test_failed_site_contributes_no_capacity(self):
        plan = make_plan(agg_tasks=("dc-1",))

        class FailedNetwork(StubNetwork):
            def site_proc_rate_eps(self, site):
                return 0.0

        diagnoser = Diagnoser(WaspConfig.paper_defaults())
        result = diagnoser.diagnose(
            plan,
            window_for([metrics(lambda_p=0.0)]),
            {"agg": StageEstimate("agg", 1000.0, 10.0)},
            FailedNetwork(plan),
        )
        assert result["agg"].health is Health.COMPUTE_BOUND
        assert result["agg"].processing_capacity_eps == 0.0
