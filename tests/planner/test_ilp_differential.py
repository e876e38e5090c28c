"""Differential test: placement solvers vs brute-force enumeration.

For instances small enough to enumerate exhaustively (<= 3 sites, <= 3
tasks), both optimizers in the planner stack - the greedy reduction
(``solve_placement``) and the scipy MILP cross-check (``solve_with_milp``)
- must agree with the brute-force optimum of the Section 4.1 program: minimize the latency objective over
all integer assignments satisfying the alpha-headroom flow caps (Eqs 2-3),
slot capacities (Eq 4) and full deployment (Eq 5).

The brute force restates the constraints directly from the equations (with
the same strict-inequality epsilon shave the planner documents), sharing
only ``site_cost_ms`` - the objective is not under test, the search is.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.runtime import MBIT_BYTES
from repro.errors import InfeasiblePlacementError
from repro.planner.placement import (
    DownstreamDemand,
    PlacementProblem,
    UpstreamFlow,
    site_cost_ms,
    solve_placement,
    solve_with_milp,
)

SITES = ("s0", "s1", "s2")
_EPS_SHAVE = 1e-9


class DictNetwork:
    def __init__(self, bandwidth: dict, latency: dict) -> None:
        self._bw = bandwidth
        self._lat = latency

    def bandwidth_mbps(self, src: str, dst: str) -> float:
        return self._bw[(src, dst)]

    def latency_ms(self, src: str, dst: str) -> float:
        return self._lat[(src, dst)]


bw_values = st.floats(min_value=0.5, max_value=200.0, allow_nan=False)
lat_values = st.floats(min_value=1.0, max_value=150.0, allow_nan=False)
eps_values = st.floats(min_value=0.0, max_value=20_000.0, allow_nan=False)


@st.composite
def instances(draw):
    n_sites = draw(st.integers(min_value=2, max_value=3))
    sites = SITES[:n_sites]
    pairs = [(a, b) for a in sites for b in sites if a != b]
    bandwidth = {pair: draw(bw_values) for pair in pairs}
    latency = {pair: draw(lat_values) for pair in pairs}
    for site in sites:
        bandwidth[(site, site)] = float("inf")
        latency[(site, site)] = 0.0
    parallelism = draw(st.integers(min_value=1, max_value=3))
    slots = {
        site: draw(st.integers(min_value=0, max_value=3)) for site in sites
    }
    upstream = [
        UpstreamFlow(
            site=draw(st.sampled_from(sites)),
            eps=draw(eps_values),
            event_bytes=draw(st.sampled_from([100.0, 200.0])),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=2)))
    ]
    downstream = [
        DownstreamDemand(
            site=draw(st.sampled_from(sites)),
            fraction=draw(st.floats(min_value=0.0, max_value=1.0,
                                    allow_nan=False)),
            eps=draw(eps_values),
            event_bytes=draw(st.sampled_from([100.0, 200.0])),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=2)))
    ]
    problem = PlacementProblem(
        parallelism=parallelism,
        upstream=upstream,
        downstream=downstream,
        available_slots=slots,
        alpha=draw(st.sampled_from([0.6, 0.8, 0.9])),
    )
    return problem, DictNetwork(bandwidth, latency)


def assignment_feasible(assignment, problem, network) -> bool:
    """Equations 2-4, restated directly (strict via the documented shave)."""
    p = problem.parallelism
    for site, tasks in assignment.items():
        if tasks > problem.available_slots.get(site, 0):
            return False
        if tasks == 0:
            continue
        for flow in problem.upstream:
            if flow.site == site or flow.eps <= 0:
                continue
            bw_eps = (
                network.bandwidth_mbps(flow.site, site)
                * MBIT_BYTES
                / flow.event_bytes
            )
            if tasks > problem.alpha * bw_eps * p / flow.eps - _EPS_SHAVE:
                return False
        for demand in problem.downstream:
            out_to_d = demand.eps * demand.fraction
            if demand.site == site or out_to_d <= 0:
                continue
            bw_eps = (
                network.bandwidth_mbps(site, demand.site)
                * MBIT_BYTES
                / demand.event_bytes
            )
            if tasks > problem.alpha * bw_eps * p / out_to_d - _EPS_SHAVE:
                return False
    return True


def brute_force(problem, network):
    """Optimal cost over all full assignments, or None if infeasible."""
    sites = sorted(problem.available_slots)
    costs = {s: site_cost_ms(s, problem, network) for s in sites}
    best = None
    ranges = [range(problem.available_slots[s] + 1) for s in sites]
    for combo in itertools.product(*ranges):
        if sum(combo) != problem.parallelism:
            continue
        assignment = dict(zip(sites, combo))
        if not assignment_feasible(assignment, problem, network):
            continue
        cost = sum(costs[s] * n for s, n in assignment.items())
        if best is None or cost < best:
            best = cost
    return best


class TestPlacementDifferential:
    @given(instances())
    @settings(max_examples=60, deadline=None)
    def test_all_solvers_match_brute_force(self, instance):
        problem, network = instance
        expected = brute_force(problem, network)
        if expected is None:
            with pytest.raises(InfeasiblePlacementError):
                solve_placement(problem, network)
            with pytest.raises(InfeasiblePlacementError):
                solve_with_milp(problem, network)
            return
        greedy = solve_placement(problem, network)
        milp = solve_with_milp(problem, network)
        for solution in (greedy, milp):
            assert solution.total_tasks() == problem.parallelism
            assert assignment_feasible(
                solution.assignment, problem, network
            ), "solver returned an assignment violating Eqs 2-4"
            assert solution.cost == pytest.approx(
                expected, rel=1e-9, abs=1e-6
            )
