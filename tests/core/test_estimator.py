"""Tests for repro.core.estimator - the lambda-hat recursion."""

import pytest

from repro.core.estimator import WorkloadEstimator
from repro.engine.logical import LogicalPlan
from repro.engine.metrics import MetricsWindow
from repro.engine.operators import filter_, sink, source, union, window_aggregate
from repro.engine.physical import PhysicalPlan


def window(source_rates):
    return MetricsWindow(
        t_start_s=0.0,
        t_end_s=40.0,
        offered_eps=sum(source_rates.values()),
        source_generation_eps=dict(source_rates),
        stages={},
        mean_delay_s=0.0,
    )


def fan_in_plan():
    ops = [
        source("a", "site-a"),
        source("b", "site-b"),
        filter_("fa", selectivity=0.5),
        filter_("fb", selectivity=0.25),
        union("u"),
        window_aggregate("agg", window_s=10, selectivity=0.1, state_mb=5),
        sink("out"),
    ]
    edges = [
        ("a", "fa"), ("b", "fb"), ("fa", "u"), ("fb", "u"),
        ("u", "agg"), ("agg", "out"),
    ]
    return PhysicalPlan(LogicalPlan.from_edges("q", ops, edges))


class TestRecursion:
    def test_expected_rates_from_sources(self):
        plan = fan_in_plan()
        estimates = WorkloadEstimator().estimate(
            plan, window({"a": 1000.0, "b": 2000.0})
        )
        # a: 1000*0.5 = 500; b: 2000*0.25 = 500; union input = 1000.
        assert estimates["u"].input_eps == pytest.approx(1000.0)
        assert estimates["agg"].input_eps == pytest.approx(1000.0)
        assert estimates["agg"].output_eps == pytest.approx(100.0)

    def test_backpressure_does_not_distort(self):
        """The estimate depends only on source generation, never on the
        (throttled) downstream observations - the whole point of Section
        3.3."""
        plan = fan_in_plan()
        estimator = WorkloadEstimator()
        clean = estimator.estimate(plan, window({"a": 1000.0, "b": 2000.0}))
        # A window with identical generation but (hypothetically) throttled
        # stage metrics produces identical estimates.
        throttled = window({"a": 1000.0, "b": 2000.0})
        assert estimator.estimate(plan, throttled) == clean

    def test_missing_source_treated_as_zero(self):
        plan = fan_in_plan()
        estimates = WorkloadEstimator().estimate(plan, window({"a": 1000.0}))
        assert estimates["u"].input_eps == pytest.approx(500.0)


class TestUpstreamFlows:
    def test_flows_split_by_task_share(self):
        plan = fan_in_plan()
        plan.stage("a").add_task("site-a")
        plan.stage("b").add_task("site-b")
        plan.stage("u").add_task("dc-1")
        plan.stage("u").add_task("dc-2")
        plan.stage("agg").add_task("dc-1")
        estimator = WorkloadEstimator()
        estimates = estimator.estimate(plan, window({"a": 800.0, "b": 0.0}))
        flows = estimator.upstream_flows_eps(
            plan, plan.stage("agg"), estimates
        )
        # Union emits 400 eps, split evenly across its 2 task sites.
        assert flows[("u", "dc-1")] == pytest.approx(200.0)
        assert flows[("u", "dc-2")] == pytest.approx(200.0)

    def test_undeployed_upstream_skipped(self):
        plan = fan_in_plan()
        estimator = WorkloadEstimator()
        estimates = estimator.estimate(plan, window({"a": 800.0}))
        flows = estimator.upstream_flows_eps(
            plan, plan.stage("agg"), estimates
        )
        assert flows == {}
