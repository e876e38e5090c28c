"""WAN-aware task placement (Section 4.1, Equations 1-5).

Given a stage with parallelism ``p``, the placement problem chooses how many
tasks ``p[s]`` to run at each site ``s``:

    min   sum_s p[s] * (l(u -> s) + l(s -> d))        for all u, d     (1)
    s.t.  (p[s] / p) * lambda_I_from_u  <  alpha * B(u -> s)           (2)
          (p[s] / p) * lambda_O_to_d    <  alpha * B(s -> d)           (3)
          0 <= p[s] <= A[s]                                            (4)
          sum_s p[s] = p                                               (5)

The paper solves this with Gurobi.  We exploit the structure instead: for a
*single* stage with its upstream and downstream deployments fixed (which is
exactly how WASP re-assigns, one stage at a time), constraints (2)-(4) are
independent per-site upper bounds and the objective is linear with identical
unit items, so sorting sites by their latency coefficient and filling
greedily is provably optimal (exchange argument: swapping any task from a
cheaper feasible site to a costlier one never helps).  The greedy is the
one solver production runs.  The test suite guards the reduction with two
oracles: an exact MILP formulation (the Gurobi stand-in,
``tests/planner/milp.py``) and brute-force enumeration
(``tests/planner/test_ilp_differential.py``).

Refinement over the paper's formulation: constraint (2) is applied per
upstream *flow* - the traffic on link ``u -> s`` is only the share of ``u``'s
output routed to ``s``, not the stage's entire input - which is the
physically binding form (the paper's text describes exactly this splitting in
Figure 4).  Local flows (``u == s``) consume no WAN bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

from ..errors import InfeasiblePlacementError, PlacementError
from ..engine.runtime import MBIT_BYTES


class NetworkView(Protocol):
    """What placement needs to know about the network (monitor or topology)."""

    def bandwidth_mbps(self, src: str, dst: str) -> float: ...

    def latency_ms(self, src: str, dst: str) -> float: ...


@dataclass(frozen=True)
class UpstreamFlow:
    """Traffic offered by one upstream site towards the stage being placed.

    Attributes:
        site: Upstream site.
        eps: Expected events/second leaving that site for this stage
            (lambda-hat based, Section 3.3).
        event_bytes: Wire size of those events.
    """

    site: str
    eps: float
    event_bytes: float


@dataclass(frozen=True)
class DownstreamDemand:
    """Where the stage's output must go.

    Attributes:
        site: Downstream site hosting consumer tasks.
        fraction: Fraction of the stage's output routed to that site
            (task-count share under balanced partitioning).
        eps: Total expected output rate of the stage being placed.
        event_bytes: Wire size of the stage's output events.
    """

    site: str
    fraction: float
    eps: float
    event_bytes: float


@dataclass(frozen=True)
class PlacementProblem:
    """One stage-placement instance.

    ``relaxed`` drops the bandwidth constraints (2)-(3), keeping only slot
    capacity and the latency objective.  The initial deployment falls back
    to it when no bandwidth-feasible placement exists - a query must deploy
    *somewhere* and rely on backpressure - whereas adaptation treats the
    infeasibility itself as the signal to scale out (Section 6.2).
    """

    parallelism: int
    upstream: list[UpstreamFlow]
    downstream: list[DownstreamDemand]
    available_slots: dict[str, int]
    alpha: float = 0.8
    relaxed: bool = False
    #: Events/second one task must process (lambda_hat_I / p under balanced
    #: partitioning).  Combined with per-site task rates it excludes sites
    #: whose (possibly straggling) slots cannot keep up.
    per_task_demand_eps: float = 0.0
    #: Per-site achievable task rate in stage-input events/second
    #: (effective slot rate / stage cost).  None disables the check.
    site_task_rate_eps: dict[str, float] | None = None

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise PlacementError(
                f"parallelism must be >= 1, got {self.parallelism}"
            )
        if not 0 < self.alpha < 1:
            raise PlacementError(f"alpha must be in (0, 1), got {self.alpha}")
        if not self.available_slots:
            raise PlacementError("no candidate sites supplied")


@dataclass(frozen=True)
class PlacementSolution:
    """Solved assignment: tasks per site plus the objective value."""

    assignment: dict[str, int]
    cost: float

    def sites(self) -> list[str]:
        return sorted(s for s, n in self.assignment.items() if n > 0)

    def total_tasks(self) -> int:
        return sum(self.assignment.values())


def site_cost_ms(
    site: str,
    problem: PlacementProblem,
    network: NetworkView,
) -> float:
    """Latency coefficient of hosting one task at ``site`` (Equation 1).

    The upstream/downstream latencies are weighted by traffic share so that
    the objective reflects the delay experienced by the data stream rather
    than treating a trickle and a torrent alike.
    """
    total_in = sum(f.eps for f in problem.upstream)
    cost = 0.0
    for flow in problem.upstream:
        weight = flow.eps / total_in if total_in > 0 else 1.0 / max(
            1, len(problem.upstream)
        )
        cost += weight * network.latency_ms(flow.site, site)
    for demand in problem.downstream:
        cost += demand.fraction * network.latency_ms(site, demand.site)
    return cost


def per_site_capacity(
    site: str,
    problem: PlacementProblem,
    network: NetworkView,
) -> int:
    """Maximum tasks placeable at ``site`` under constraints (2)-(4).

    Constraint (2): the flow ``u -> site`` is ``flow.eps * p[s]/p``; it must
    stay below ``alpha * B(u -> site)``, giving
    ``p[s] <= alpha * B * p / flow_rate`` per upstream.  Constraint (3) is
    symmetric for downstream demands.  Strict inequality in the paper is
    honoured by a tiny epsilon shave.
    """
    p = problem.parallelism
    cap = float(problem.available_slots.get(site, 0))
    if problem.relaxed:
        return max(0, int(cap))
    if (
        problem.site_task_rate_eps is not None
        and problem.per_task_demand_eps > 0
    ):
        # A task placed here must process its balanced share; a straggling
        # or weak site that cannot keep up hosts no tasks at all.
        rate = problem.site_task_rate_eps.get(site, float("inf"))
        if rate < problem.per_task_demand_eps:
            return 0
    eps_shave = 1e-9
    for flow in problem.upstream:
        if flow.site == site or flow.eps <= 0:
            continue
        bw_eps = (
            network.bandwidth_mbps(flow.site, site)
            * MBIT_BYTES
            / flow.event_bytes
        )
        limit = problem.alpha * bw_eps * p / flow.eps
        # A vanishing flow (or unbounded link) makes the quotient overflow
        # to inf: the constraint simply does not bind.
        if math.isfinite(limit):
            cap = min(cap, math.floor(limit - eps_shave))
    for demand in problem.downstream:
        if demand.site == site:
            continue
        out_to_d = demand.eps * demand.fraction
        if out_to_d <= 0:
            continue
        bw_eps = (
            network.bandwidth_mbps(site, demand.site)
            * MBIT_BYTES
            / demand.event_bytes
        )
        limit = problem.alpha * bw_eps * p / out_to_d
        if math.isfinite(limit):
            cap = min(cap, math.floor(limit - eps_shave))
    return max(0, int(cap))


def solve_placement(
    problem: PlacementProblem,
    network: NetworkView,
) -> PlacementSolution:
    """Solve the placement ILP via the greedy reduction.

    Raises:
        InfeasiblePlacementError: If the per-site capacities cannot host all
            ``p`` tasks - the signal the adaptation policy uses to fall back
            to operator scaling (Section 6.2).
    """
    costs = {
        site: site_cost_ms(site, problem, network)
        for site in problem.available_slots
    }
    caps = {
        site: per_site_capacity(site, problem, network)
        for site in problem.available_slots
    }
    if sum(caps.values()) < problem.parallelism:
        raise InfeasiblePlacementError(
            f"cannot place {problem.parallelism} tasks: per-site capacities "
            f"{caps} admit only {sum(caps.values())}"
        )
    assignment: dict[str, int] = {}
    remaining = problem.parallelism
    for site in sorted(problem.available_slots, key=lambda s: (costs[s], s)):
        if remaining == 0:
            break
        take = min(caps[site], remaining)
        if take > 0:
            assignment[site] = take
            remaining -= take
    total_cost = sum(costs[s] * n for s, n in assignment.items())
    return PlacementSolution(assignment=assignment, cost=total_cost)
