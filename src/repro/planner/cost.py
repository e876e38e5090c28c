"""Heuristic cost-based plan + placement estimation (Section 4.3).

To avoid evaluating every combination of logical and physical plans (which
is NP-hard), the Query Planner and Scheduler jointly evaluate a small set of
logical variants: for each variant the Scheduler computes a WAN-aware
placement stage-by-stage in topological order, and the pair with the lowest
estimated delay wins.

The estimate combines:

* the placement objective (traffic-weighted up/downstream latency, Eq. 1);
* a congestion-risk term that grows as any link's expected utilization
  approaches the ``alpha`` headroom (a placement that barely fits is worse
  than one with slack, because dynamics will push it over);
* the total WAN bandwidth the deployment consumes (Figure 5's 70 vs 90
  MB/s comparison), used as a tie-breaker and reported for inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..engine.logical import LogicalPlan
from ..engine.physical import PhysicalPlan, Stage
from ..engine.runtime import MBIT_BYTES
from ..errors import InfeasiblePlacementError, PlanError
from .placement import (
    NetworkView,
    PlacementProblem,
    PlacementSolution,
    UpstreamFlow,
    solve_placement,
)


@dataclass(frozen=True)
class DeploymentEstimate:
    """A fully-placed candidate deployment with its estimated cost."""

    logical: LogicalPlan
    physical: PhysicalPlan
    assignments: dict[str, dict[str, int]]
    delay_score_ms: float
    wan_mbps: float
    feasible: bool
    infeasible_reason: str = ""

    def better_than(self, other: "DeploymentEstimate | None") -> bool:
        if other is None:
            return True
        if self.feasible != other.feasible:
            return self.feasible
        if abs(self.delay_score_ms - other.delay_score_ms) > 1e-9:
            return self.delay_score_ms < other.delay_score_ms
        return self.wan_mbps < other.wan_mbps


def _stage_flows_to(
    stage: Stage,
    physical: PhysicalPlan,
    assignments: dict[str, dict[str, int]],
    stage_rates: dict[str, dict[str, float]],
) -> list[UpstreamFlow]:
    """Expected per-site traffic from the (already placed) upstream stages."""
    flows: dict[tuple[str, float], float] = {}
    for up in physical.upstream_stages(stage.name):
        up_assignment = assignments.get(up.name, {})
        total_tasks = sum(up_assignment.values())
        if total_tasks == 0:
            continue
        out_eps = stage_rates[up.name]["output"]
        for site, count in up_assignment.items():
            key = (site, up.output_event_bytes)
            flows[key] = flows.get(key, 0.0) + out_eps * count / total_tasks
    return [
        UpstreamFlow(site=site, eps=eps, event_bytes=eb)
        for (site, eb), eps in sorted(flows.items())
    ]


def estimate_deployment(
    logical: LogicalPlan,
    network: NetworkView,
    available_slots: dict[str, int],
    source_generation_eps: dict[str, float],
    *,
    alpha: float = 0.8,
    parallelism: dict[str, int] | None = None,
    relaxed: bool = False,
) -> DeploymentEstimate:
    """Place every stage of ``logical`` topologically and score the result.

    Args:
        logical: The candidate logical plan.
        network: Measured bandwidth/latency view.
        available_slots: Free slots per site for *new* tasks; consumed as
            stages are placed (a copy is made).
        source_generation_eps: Raw generation rate per source stage.
        alpha: Bandwidth-utilization headroom.
        parallelism: Per-stage parallelism override (existing stages keep
            their live parallelism on re-planning); any other stage gets
            p = 1, as the paper initializes all operators.
        relaxed: Drop the bandwidth constraints (initial-deployment
            fallback; see :class:`~repro.planner.placement.PlacementProblem`).
    """
    physical = PhysicalPlan(logical)
    stage_rates = physical.expected_stage_rates(source_generation_eps)
    slots = dict(available_slots)
    parallelism = parallelism or {}

    assignments: dict[str, dict[str, int]] = {}
    delay_score = 0.0
    wan_mbps = 0.0
    total_input = sum(
        stage_rates[s.name]["input"]
        for s in physical.topological_stages()
        if not s.is_source
    )

    for stage in physical.topological_stages():
        if stage.is_source:
            site = stage.pinned_site
            if site is None:
                raise PlanError(f"source stage {stage.name!r} not pinned")
            assignments[stage.name] = {site: 1}
            slots[site] = slots.get(site, 0) - 1
            continue
        p = parallelism.get(stage.name, 1)
        upstream_flows = _stage_flows_to(
            stage, physical, assignments, stage_rates
        )
        problem = PlacementProblem(
            parallelism=p,
            upstream=upstream_flows,
            downstream=[],  # scheduled one-stage-at-a-time, topologically
            available_slots=slots,
            alpha=alpha,
            relaxed=relaxed,
        )
        try:
            solution = solve_placement(problem, network)
        except InfeasiblePlacementError as exc:
            return DeploymentEstimate(
                logical=logical,
                physical=physical,
                assignments=assignments,
                delay_score_ms=math.inf,
                wan_mbps=math.inf,
                feasible=False,
                infeasible_reason=f"stage {stage.name!r}: {exc}",
            )
        assignments[stage.name] = solution.assignment
        for site, count in solution.assignment.items():
            slots[site] = slots.get(site, 0) - count

        # Delay contribution: traffic-weighted placement cost plus a
        # congestion-risk term per inter-site flow.
        input_eps = stage_rates[stage.name]["input"]
        weight = input_eps / total_input if total_input > 0 else 0.0
        delay_score += weight * _traffic_weighted_latency(
            stage, solution, upstream_flows, network, alpha, p
        )
        wan_mbps += _stage_wan_mbps(solution, upstream_flows, p)

    return DeploymentEstimate(
        logical=logical,
        physical=physical,
        assignments=assignments,
        delay_score_ms=delay_score,
        wan_mbps=wan_mbps,
        feasible=True,
    )


def _traffic_weighted_latency(
    stage: Stage,
    solution: PlacementSolution,
    upstream_flows: list[UpstreamFlow],
    network: NetworkView,
    alpha: float,
    p: int,
) -> float:
    """Mean latency (ms) experienced by the stage's inbound traffic, with a
    congestion-risk inflation of ``1 / (1 - u/alpha_ceiling)`` per flow."""
    total_eps = sum(f.eps for f in upstream_flows)
    if total_eps <= 0:
        return 0.0
    score = 0.0
    for flow in upstream_flows:
        for site, count in solution.assignment.items():
            share = flow.eps * count / p
            if share <= 0:
                continue
            latency = network.latency_ms(flow.site, site)
            if flow.site != site:
                bw_eps = (
                    network.bandwidth_mbps(flow.site, site)
                    * MBIT_BYTES
                    / flow.event_bytes
                )
                # Inflate relative to the alpha budget: a flow at the cap
                # has no headroom for dynamics and scores ~30x its latency,
                # steering the planner towards placements with slack.
                relative = share / max(bw_eps * alpha, 1e-9)
                utilization = min(relative, 0.97)
                latency *= 1.0 / max(1e-3, 1.0 - utilization)
            score += (share / total_eps) * latency
    return score


def _stage_wan_mbps(
    solution: PlacementSolution,
    upstream_flows: list[UpstreamFlow],
    p: int,
) -> float:
    """WAN bandwidth the stage's inbound flows consume (Figure 5 metric)."""
    total = 0.0
    for flow in upstream_flows:
        for site, count in solution.assignment.items():
            if flow.site == site:
                continue
            total += flow.eps * (count / p) * flow.event_bytes / MBIT_BYTES
    return total


def choose_best_deployment(
    variants: list[LogicalPlan],
    network: NetworkView,
    available_slots: dict[str, int],
    source_generation_eps: dict[str, float],
    *,
    alpha: float = 0.8,
    parallelism: dict[str, int] | None = None,
    relaxed: bool = False,
) -> DeploymentEstimate:
    """Evaluate every variant and return the best feasible deployment.

    Raises:
        InfeasiblePlacementError: When no variant can be placed.
    """
    if not variants:
        raise PlanError("no plan variants supplied")
    best: DeploymentEstimate | None = None
    for variant in variants:
        estimate = estimate_deployment(
            variant,
            network,
            available_slots,
            source_generation_eps,
            alpha=alpha,
            parallelism=parallelism,
            relaxed=relaxed,
        )
        if estimate.better_than(best):
            best = estimate
    assert best is not None
    if not best.feasible:
        raise InfeasiblePlacementError(
            f"no feasible deployment among {len(variants)} variants: "
            f"{best.infeasible_reason}"
        )
    return best
