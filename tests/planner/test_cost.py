"""Tests for repro.planner.cost - joint plan + placement estimation."""

import math

import pytest

from repro.engine.logical import LogicalPlan
from repro.engine.operators import filter_, sink, source, union, window_aggregate
from repro.errors import InfeasiblePlacementError, PlanError
from repro.network.monitor import WanMonitor
from repro.planner.cost import choose_best_deployment, estimate_deployment


def simple_plan(name="q", agg_bytes=100.0):
    ops = [
        source("src", "edge-x", event_bytes=200),
        filter_("flt", selectivity=0.5, event_bytes=agg_bytes),
        window_aggregate("agg", window_s=10, selectivity=0.01, state_mb=5),
        sink("out"),
    ]
    return LogicalPlan.from_edges(
        name, ops, [("src", "flt"), ("flt", "agg"), ("agg", "out")]
    )


@pytest.fixture
def monitor(small_topology, rng):
    m = WanMonitor(small_topology, rng)
    m.refresh()
    return m


class TestEstimation:
    def test_sources_pinned(self, small_topology, monitor):
        estimate = estimate_deployment(
            simple_plan(), monitor, small_topology.available_slots(),
            {"src": 1000.0},
        )
        assert estimate.assignments["src"] == {"edge-x": 1}

    def test_all_stages_assigned(self, small_topology, monitor):
        estimate = estimate_deployment(
            simple_plan(), monitor, small_topology.available_slots(),
            {"src": 1000.0},
        )
        assert set(estimate.assignments) == {"src", "agg", "out"}
        assert estimate.feasible

    def test_source_slots_consumed(self, small_topology, monitor):
        """Regression: sources occupy slots the estimator must account for."""
        slots = {"edge-x": 1, "dc-1": 0, "dc-2": 0}
        estimate = estimate_deployment(
            simple_plan(), monitor, slots, {"src": 100.0}
        )
        # edge-x's only slot goes to the source; nothing left for agg.
        assert not estimate.feasible

    def test_parallelism_override(self, small_topology, monitor):
        estimate = estimate_deployment(
            simple_plan(), monitor, small_topology.available_slots(),
            {"src": 1000.0}, parallelism={"agg": 3},
        )
        assert sum(estimate.assignments["agg"].values()) == 3

    def test_infeasible_reports_reason(self, small_topology, monitor):
        # 60_000 eps * 100 B = 48 Mbps out of edge-x; its links carry 15,
        # and with edge-x full the flow cannot stay local either.
        estimate = estimate_deployment(
            simple_plan(), monitor,
            {"edge-x": 1, "dc-1": 8, "dc-2": 8},
            {"src": 120_000.0},
        )
        assert not estimate.feasible
        assert math.isinf(estimate.delay_score_ms)
        assert "agg" in estimate.infeasible_reason

    def test_relaxed_always_feasible_given_slots(self, small_topology, monitor):
        estimate = estimate_deployment(
            simple_plan(), monitor,
            {"edge-x": 1, "dc-1": 8, "dc-2": 8},
            {"src": 120_000.0}, relaxed=True,
        )
        assert estimate.feasible

    def test_wan_mbps_accounts_cross_site_flows(self, small_topology, monitor):
        estimate = estimate_deployment(
            simple_plan(), monitor, small_topology.available_slots(),
            {"src": 1000.0},
        )
        # 500 eps * 100 B = 0.4 Mbps crosses edge-x -> agg site at minimum
        # (zero only if everything co-locates at edge-x, which slots allow).
        assert estimate.wan_mbps >= 0.0


class TestChoice:
    def test_chooses_lower_bandwidth_variant(self, small_topology, monitor):
        """Figure 5: with equal latency structure the planner prefers the
        plan consuming less WAN bandwidth."""
        heavy = simple_plan("heavy", agg_bytes=150.0)
        light = simple_plan("light", agg_bytes=50.0)
        best = choose_best_deployment(
            [heavy, light], monitor,
            {"edge-x": 1, "dc-1": 8, "dc-2": 8},
            {"src": 5000.0},
        )
        assert best.logical.name == "light"

    def test_feasible_beats_infeasible(self, small_topology, monitor):
        ok = simple_plan("ok", agg_bytes=50.0)
        too_big = simple_plan("big", agg_bytes=5000.0)
        best = choose_best_deployment(
            [too_big, ok], monitor,
            {"edge-x": 1, "dc-1": 8, "dc-2": 8},
            {"src": 5000.0},
        )
        assert best.logical.name == "ok"

    def test_all_infeasible_raises(self, small_topology, monitor):
        with pytest.raises(InfeasiblePlacementError):
            choose_best_deployment(
                [simple_plan()], monitor,
                {"edge-x": 1, "dc-1": 8, "dc-2": 8},
                {"src": 10_000_000.0},
            )

    def test_no_variants_rejected(self, small_topology, monitor):
        with pytest.raises(PlanError):
            choose_best_deployment(
                [], monitor, small_topology.available_slots(), {}
            )

    def test_better_than_ordering(self, small_topology, monitor):
        a = estimate_deployment(
            simple_plan("a"), monitor, small_topology.available_slots(),
            {"src": 1000.0},
        )
        assert a.better_than(None)
        assert not a.better_than(a)
