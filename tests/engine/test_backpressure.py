"""Tests of the backpressure oracle - observed vs actual rates."""

import pytest

from repro.engine.logical import LogicalPlan
from repro.engine.operators import filter_, sink, source, window_aggregate
from repro.engine.physical import PhysicalPlan
from tests.engine.backpressure import (
    TopologyCapacityModel,
    bottleneck_stages,
    steady_state_rates,
)
from tests.engine.test_runtime import build_pipeline, mbps_to_eps


def make_deployed_plan(agg_site="dc-1", agg_cost=1.0):
    ops = [
        source("src", "edge-x", event_bytes=200),
        filter_("flt", selectivity=0.5, event_bytes=100),
        window_aggregate("agg", window_s=10, selectivity=0.01, state_mb=5,
                         cost=agg_cost),
        sink("out"),
    ]
    logical = LogicalPlan.from_edges(
        "q", ops, [("src", "flt"), ("flt", "agg"), ("agg", "out")]
    )
    plan = PhysicalPlan(logical)
    plan.stage("src").add_task("edge-x")
    plan.stage("agg").add_task(agg_site)
    plan.stage("out").add_task(agg_site)
    return plan


class TestSteadyState:
    def test_unconstrained_ratios_are_one(self, small_topology):
        plan = make_deployed_plan()
        observed = steady_state_rates(
            plan, {"src": 1000.0}, TopologyCapacityModel(small_topology)
        )
        for rates in observed.values():
            assert rates.throughput_ratio == pytest.approx(1.0)

    def test_network_bottleneck_throttles_observed_rates(self, small_topology):
        """Observed input at the bottlenecked stage < unthrottled input -
        the Section 3.3 distortion."""
        plan = make_deployed_plan()
        link_eps = mbps_to_eps(10.0, 100.0)
        rate = link_eps * 4  # post-filter demand = 2x link capacity
        observed = steady_state_rates(
            plan, {"src": rate}, TopologyCapacityModel(small_topology)
        )
        agg = observed["agg"]
        assert agg.input_eps == pytest.approx(link_eps, rel=0.01)
        assert agg.throughput_ratio == pytest.approx(0.5, rel=0.01)

    def test_compute_bottleneck_clips_processing(self, small_topology):
        plan = make_deployed_plan(agg_cost=20.0)  # capacity 2_000 eps
        observed = steady_state_rates(
            plan, {"src": 10_000.0}, TopologyCapacityModel(small_topology)
        )
        agg = observed["agg"]
        assert agg.processed_eps == pytest.approx(2_000.0)
        assert agg.input_eps == pytest.approx(5_000.0)

    def test_downstream_inherits_throttling(self, small_topology):
        """Every stage downstream of the bottleneck observes the lie."""
        plan = make_deployed_plan(agg_cost=20.0)
        observed = steady_state_rates(
            plan, {"src": 10_000.0}, TopologyCapacityModel(small_topology)
        )
        assert observed["out"].throughput_ratio == pytest.approx(
            observed["agg"].throughput_ratio, rel=0.01
        )

    def test_straggler_reflected_in_capacity(self, small_topology):
        plan = make_deployed_plan()
        small_topology.site("dc-1").set_slowdown(10.0)
        observed = steady_state_rates(
            plan, {"src": 10_000.0}, TopologyCapacityModel(small_topology)
        )
        assert observed["agg"].processed_eps == pytest.approx(4_000.0)


class TestBottleneckOrigins:
    def test_no_bottleneck(self, small_topology):
        plan = make_deployed_plan()
        assert bottleneck_stages(
            plan, {"src": 1000.0}, TopologyCapacityModel(small_topology)
        ) == []

    def test_network_origin_identified(self, small_topology):
        # Rate low enough that source ingestion keeps up (its chain caps at
        # 32k eps) but the post-filter stream overflows the 10 Mbps link.
        plan = make_deployed_plan()
        rate = 30_000.0  # post-filter 15k eps > 12.5k eps link capacity
        origins = bottleneck_stages(
            plan, {"src": rate}, TopologyCapacityModel(small_topology)
        )
        assert origins == ["agg"]

    def test_source_ingestion_can_be_the_origin(self, small_topology):
        """At extreme rates the source chain itself clips first."""
        plan = make_deployed_plan()
        origins = bottleneck_stages(
            plan, {"src": 100_000.0}, TopologyCapacityModel(small_topology)
        )
        assert "src" in origins

    def test_compute_origin_identified(self, small_topology):
        plan = make_deployed_plan(agg_cost=20.0)
        origins = bottleneck_stages(
            plan, {"src": 10_000.0}, TopologyCapacityModel(small_topology)
        )
        assert origins == ["agg"]


class TestAgreementWithFluidEngine:
    def test_fluid_engine_converges_to_fixed_point(self, small_topology):
        """The engine's long-run sink throughput equals the analytic
        steady state - the fluid model and the theory agree."""
        link_eps = mbps_to_eps(10.0, 100.0)
        rate = link_eps * 4
        runtime = build_pipeline(small_topology, rate=rate)
        for _ in range(60):
            report = runtime.tick()
        observed = steady_state_rates(
            runtime.plan, {"src": rate},
            TopologyCapacityModel(small_topology),
        )
        assert report.sink_events == pytest.approx(
            observed["out"].output_eps, rel=0.05
        )

    def test_estimator_recovers_actual_from_sources(self, small_topology):
        """Under backpressure the estimator's lambda-hat matches the
        *unthrottled* demand, not the throttled observation (Section 3.3)."""
        from repro.core.estimator import WorkloadEstimator
        from repro.engine.metrics import MetricsWindow

        plan = make_deployed_plan()
        link_eps = mbps_to_eps(10.0, 100.0)
        rate = link_eps * 4
        window = MetricsWindow(
            t_start_s=0.0, t_end_s=40.0, offered_eps=rate,
            source_generation_eps={"src": rate}, stages={},
            mean_delay_s=0.0,
        )
        estimates = WorkloadEstimator().estimate(plan, window)
        throttled = steady_state_rates(
            plan, {"src": rate}, TopologyCapacityModel(small_topology)
        )
        # The estimator reports twice what the throttled system observes.
        assert estimates["agg"].input_eps == pytest.approx(
            2 * throttled["agg"].input_eps, rel=0.01
        )
