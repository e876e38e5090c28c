"""Tests for repro.planner.placement - the Equations 1-5 ILP."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InfeasiblePlacementError, PlacementError
from repro.planner.placement import (
    DownstreamDemand,
    PlacementProblem,
    UpstreamFlow,
    per_site_capacity,
    solve_placement,
)
from tests.engine.test_runtime import mbps_to_eps
from tests.planner.milp import solve_with_milp


class GridNetwork:
    """Synthetic network view backed by dictionaries."""

    def __init__(self, bandwidth, latency, default_bw=100.0, default_lat=50.0):
        self.bw = dict(bandwidth)
        self.lat = dict(latency)
        self.default_bw = default_bw
        self.default_lat = default_lat

    def bandwidth_mbps(self, src, dst):
        if src == dst:
            return 100_000.0
        return self.bw.get((src, dst), self.default_bw)

    def latency_ms(self, src, dst):
        if src == dst:
            return 0.5
        return self.lat.get((src, dst), self.default_lat)


def problem(p=2, *, slots=None, upstream=None, downstream=None, alpha=0.8,
            relaxed=False):
    return PlacementProblem(
        parallelism=p,
        upstream=upstream or [UpstreamFlow("u", 1000.0, 100.0)],
        downstream=downstream or [],
        available_slots=slots or {"a": 4, "b": 4, "u": 4},
        alpha=alpha,
        relaxed=relaxed,
    )


class TestObjective:
    def test_prefers_low_latency_site(self):
        network = GridNetwork({}, {("u", "a"): 10.0, ("u", "b"): 200.0})
        solution = solve_placement(
            problem(p=1, slots={"a": 4, "b": 4}), network
        )
        assert solution.assignment == {"a": 1}

    def test_traffic_weighted_upstream_latency(self):
        """A torrent from u1 outweighs a trickle from u2."""
        network = GridNetwork(
            {},
            {
                ("u1", "a"): 10.0, ("u2", "a"): 500.0,
                ("u1", "b"): 500.0, ("u2", "b"): 10.0,
            },
        )
        upstream = [
            UpstreamFlow("u1", 10_000.0, 100.0),
            UpstreamFlow("u2", 10.0, 100.0),
        ]
        solution = solve_placement(
            problem(p=1, upstream=upstream, slots={"a": 1, "b": 1}), network
        )
        assert solution.assignment == {"a": 1}

    def test_downstream_latency_counts(self):
        network = GridNetwork(
            {},
            {
                ("u", "a"): 50.0, ("u", "b"): 50.0,
                ("a", "d"): 5.0, ("b", "d"): 300.0,
            },
        )
        downstream = [DownstreamDemand("d", 1.0, 500.0, 100.0)]
        solution = solve_placement(
            problem(p=1, downstream=downstream, slots={"a": 1, "b": 1}),
            network,
        )
        assert solution.assignment == {"a": 1}

    def test_co_location_is_cheap(self):
        network = GridNetwork({}, {("u", "a"): 100.0})
        solution = solve_placement(
            problem(p=1, slots={"a": 1, "u": 1}), network
        )
        assert solution.assignment == {"u": 1}


class TestConstraints:
    def test_slot_capacity_respected(self):
        network = GridNetwork({}, {("u", "a"): 1.0, ("u", "b"): 100.0})
        solution = solve_placement(
            problem(p=3, slots={"a": 2, "b": 4}), network
        )
        assert solution.assignment == {"a": 2, "b": 1}

    def test_bandwidth_cap_limits_tasks(self):
        """Constraint 2: flow share into a site must fit alpha * B."""
        # Flow 1000 eps at 100 B = 0.8 Mbps. With B = 0.6 Mbps and
        # alpha = 0.8 the budget is 0.48 Mbps: one of two tasks fits
        # (0.4 Mbps share), two do not.
        network = GridNetwork(
            {("u", "a"): 0.6, ("u", "b"): 100.0}, {}
        )
        capacity = per_site_capacity("a", problem(p=2), network)
        assert capacity == 1

    def test_local_flow_needs_no_bandwidth(self):
        network = GridNetwork({("u", "a"): 0.0001}, {})
        capacity = per_site_capacity(
            "u", problem(p=2, slots={"u": 2, "a": 2}), network
        )
        assert capacity == 2

    def test_outbound_constraint(self):
        """Constraint 3: output share to a downstream site must fit."""
        network = GridNetwork({("a", "d"): 0.1}, {})
        downstream = [DownstreamDemand("d", 1.0, 10_000.0, 100.0)]
        capacity = per_site_capacity(
            "a", problem(p=1, downstream=downstream), network
        )
        assert capacity == 0

    def test_infeasible_raises(self):
        network = GridNetwork(
            {("u", "a"): 0.01, ("u", "b"): 0.01}, {}
        )
        with pytest.raises(InfeasiblePlacementError):
            solve_placement(problem(p=2, slots={"a": 4, "b": 4}), network)

    def test_relaxed_ignores_bandwidth(self):
        network = GridNetwork({("u", "a"): 0.01, ("u", "b"): 0.01}, {})
        solution = solve_placement(
            problem(p=2, slots={"a": 4, "b": 4}, relaxed=True), network
        )
        assert solution.total_tasks() == 2

    def test_all_tasks_deployed(self):
        """Constraint 5: the system deploys all p tasks."""
        network = GridNetwork({}, {})
        solution = solve_placement(problem(p=5), network)
        assert solution.total_tasks() == 5


class TestValidation:
    def test_zero_parallelism_rejected(self):
        with pytest.raises(PlacementError):
            problem(p=0)

    def test_bad_alpha_rejected(self):
        with pytest.raises(PlacementError):
            problem(alpha=1.5)

    def test_empty_sites_rejected(self):
        with pytest.raises(PlacementError):
            PlacementProblem(
                parallelism=1, upstream=[], downstream=[], available_slots={}
            )


class TestGreedyOptimality:
    """The greedy reduction must match the MILP reference exactly."""

    @given(
        st.integers(min_value=1, max_value=10),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),  # slots
                st.floats(min_value=0.1, max_value=50.0),  # bandwidth
                st.floats(min_value=1.0, max_value=300.0),  # latency
            ),
            min_size=2,
            max_size=6,
        ),
        st.floats(min_value=100.0, max_value=20_000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_greedy_matches_milp(self, p, sites, flow_eps):
        slots = {f"s{i}": spec[0] for i, spec in enumerate(sites)}
        bandwidth = {("u", f"s{i}"): spec[1] for i, spec in enumerate(sites)}
        latency = {("u", f"s{i}"): spec[2] for i, spec in enumerate(sites)}
        network = GridNetwork(bandwidth, latency)
        prob = PlacementProblem(
            parallelism=p,
            upstream=[UpstreamFlow("u", flow_eps, 100.0)],
            downstream=[],
            available_slots=slots,
            alpha=0.8,
        )
        try:
            greedy = solve_placement(prob, network)
        except InfeasiblePlacementError:
            with pytest.raises(InfeasiblePlacementError):
                solve_with_milp(prob, network)
            return
        milp = solve_with_milp(prob, network)
        assert greedy.cost == pytest.approx(milp.cost, rel=1e-6)
        assert greedy.total_tasks() == p

    def test_greedy_cost_reported(self):
        network = GridNetwork({}, {("u", "a"): 10.0, ("u", "b"): 30.0})
        solution = solve_placement(problem(p=2, slots={"a": 1, "b": 1}),
                                   network)
        assert solution.cost == pytest.approx(40.0)
        assert solution.assignment == {"a": 1, "b": 1}


class TestHeadroomSemantics:
    def test_alpha_leaves_bandwidth_headroom(self):
        """At alpha=0.8 a link is never planned above 80% utilization."""
        flow_eps = mbps_to_eps(10.0, 100.0)  # exactly fills a 10 Mbps link
        network = GridNetwork({("u", "a"): 10.0}, {})
        prob = problem(
            p=1,
            upstream=[UpstreamFlow("u", flow_eps, 100.0)],
            slots={"a": 1},
        )
        with pytest.raises(InfeasiblePlacementError):
            solve_placement(prob, network)

    def test_fits_within_headroom(self):
        flow_eps = mbps_to_eps(10.0, 100.0) * 0.7  # 70% < alpha
        network = GridNetwork({("u", "a"): 10.0}, {})
        prob = problem(
            p=1,
            upstream=[UpstreamFlow("u", flow_eps, 100.0)],
            slots={"a": 1},
        )
        assert solve_placement(prob, network).assignment == {"a": 1}
