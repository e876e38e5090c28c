"""Tests for repro.core.scaling - DS2-style scale factors."""

import pytest

from repro.config import WaspConfig
from repro.core.diagnosis import LinkPressure, StageDiagnosis, Health
from repro.core.scaling import (
    MAX_SCALE_OUT_PER_ROUND,
    compute_scale_out_target,
    compute_scale_up_target,
    pick_scale_down_site,
)
from repro.engine.logical import LogicalPlan
from repro.engine.operators import sink, source, window_aggregate


def make_stage(task_sites):
    ops = [
        source("src", "edge-x"),
        window_aggregate("agg", window_s=10, selectivity=0.01, state_mb=5),
        sink("out"),
    ]
    logical = LogicalPlan.from_edges(
        "q", ops, [("src", "agg"), ("agg", "out")]
    )
    from repro.engine.physical import PhysicalPlan

    plan = PhysicalPlan(logical)
    stage = plan.stage("agg")
    for site in task_sites:
        stage.add_task(site)
    return stage


def diagnosis(*, expected=1000.0, capacity=40_000.0, utilization=0.5,
              backlog=0.0, growth=0.0, links=()):
    return StageDiagnosis(
        stage="agg",
        health=Health.HEALTHY,
        expected_input_eps=expected,
        processing_capacity_eps=capacity,
        utilization=utilization,
        input_backlog=backlog,
        input_backlog_growth=growth,
        constrained_links=tuple(links),
    )


class TestScaleUp:
    def test_ds2_formula(self):
        """p' = ceil(lambda_hat_I / lambda_P * p)."""
        stage = make_stage(["a", "a"])
        decision = compute_scale_up_target(
            stage, diagnosis(expected=120_000.0, capacity=80_000.0)
        )
        assert decision.target == 3  # ceil(1.5 * 2)

    def test_minimum_increase_is_one(self):
        stage = make_stage(["a"])
        decision = compute_scale_up_target(
            stage, diagnosis(expected=40_001.0, capacity=40_000.0)
        )
        assert decision.target == 2

    def test_capped_per_round(self):
        """Resource-hoarding guard (Section 6.2)."""
        config = WaspConfig.paper_defaults()
        stage = make_stage(["a"])
        decision = compute_scale_up_target(
            stage, diagnosis(expected=4_000_000.0, capacity=40_000.0), config
        )
        assert decision.target == 1 + MAX_SCALE_OUT_PER_ROUND

    def test_backlog_drives_recovery_sizing(self):
        """After a failure the accumulated backlog must drain within one
        monitoring interval (Section 8.6 recovery)."""
        stage = make_stage(["a"])
        with_backlog = compute_scale_up_target(
            stage,
            diagnosis(expected=30_000.0, capacity=40_000.0,
                      backlog=4_000_000.0),
        )
        without = compute_scale_up_target(
            stage, diagnosis(expected=30_000.0, capacity=40_000.0)
        )
        assert with_backlog.target > without.target

    def test_zero_capacity_doubles(self):
        stage = make_stage(["a", "a"])
        decision = compute_scale_up_target(
            stage, diagnosis(expected=1000.0, capacity=0.0)
        )
        assert decision.target == 4

    def test_delta(self):
        stage = make_stage(["a"])
        decision = compute_scale_up_target(
            stage, diagnosis(expected=80_000.0, capacity=40_000.0)
        )
        assert decision.delta == decision.target - 1


class TestScaleOut:
    def link(self, deficit_ratio=0.5, flow=10_000.0):
        capacity = flow * (1 - deficit_ratio)
        return LinkPressure(
            src_site="e1", dst_site="d1", expected_flow_eps=flow,
            capacity_eps=capacity,
        )

    def test_no_links_no_change(self):
        stage = make_stage(["a"])
        decision = compute_scale_out_target(stage, diagnosis())
        assert decision.delta == 0

    def test_adds_tasks_for_constrained_link(self):
        stage = make_stage(["a"])
        decision = compute_scale_out_target(
            stage, diagnosis(links=[self.link()])
        )
        assert decision.target > 1

    def test_capped_per_round(self):
        stage = make_stage(["a"])
        links = [self.link() for _ in range(10)]
        decision = compute_scale_out_target(stage, diagnosis(links=links))
        assert decision.delta <= MAX_SCALE_OUT_PER_ROUND


class TestScaleDown:
    def test_prefers_singleton_site(self):
        """Section 4.2: terminate tasks not co-located with the rest."""
        stage = make_stage(["a", "a", "b"])
        assert pick_scale_down_site(stage) == "b"

    def test_balanced_placement_drops_from_largest(self):
        stage = make_stage(["a", "a", "b", "b"])
        assert pick_scale_down_site(stage) in ("a", "b")
