"""MILP oracle for the placement ILP (Section 4.1, Equations 1-5).

The paper solves placement with Gurobi; production runs the greedy
reduction in :mod:`repro.planner.placement`.  This module states the same
program for ``scipy.optimize.milp`` so the tests can cross-check the greedy
against an exact solver.  No production path imports it, so scipy is a
test dependency only.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.errors import InfeasiblePlacementError
from repro.planner.placement import (
    NetworkView,
    PlacementProblem,
    PlacementSolution,
    per_site_capacity,
    site_cost_ms,
)


def solve_with_milp(
    problem: PlacementProblem,
    network: NetworkView,
) -> PlacementSolution:
    """Reference MILP solution, used to cross-check the greedy.

    Solves ``min c.x`` subject to ``0 <= x[s] <= cap[s]`` and
    ``sum x = p`` with integrality, which is the full Equations 1-5 system
    after folding the per-site bandwidth constraints into ``cap``.
    """
    sites = sorted(problem.available_slots)
    costs = np.array(
        [site_cost_ms(site, problem, network) for site in sites]
    )
    caps = np.array(
        [per_site_capacity(site, problem, network) for site in sites],
        dtype=float,
    )
    if caps.sum() < problem.parallelism:
        raise InfeasiblePlacementError(
            f"cannot place {problem.parallelism} tasks (milp)"
        )
    constraint = LinearConstraint(
        np.ones((1, len(sites))), problem.parallelism, problem.parallelism
    )
    result = milp(
        c=costs,
        constraints=[constraint],
        integrality=np.ones(len(sites)),
        bounds=Bounds(0, caps),
    )
    if not result.success:
        raise InfeasiblePlacementError(f"milp failed: {result.message}")
    assignment = {
        site: int(round(x))
        for site, x in zip(sites, result.x)
        if round(x) > 0
    }
    return PlacementSolution(assignment=assignment, cost=float(result.fun))
