"""Backpressure oracle: observed vs actual rates (Section 3.3).

Modern engines rely on backpressure: a bottleneck operator triggers
control-rate messages that throttle its upstreams, so every rate observed
downstream of (or at) the bottleneck reflects the *throttled* stream.  The
paper's point is that sizing adaptations from those observations is wrong -
"the system should rely on the actual workload instead of the observed
information".

This module makes the distinction analytic.  Given a physical plan, source
generation rates, per-stage processing capacities and per-link bandwidth
capacities, :func:`steady_state_rates` computes the throttled fixed point:
the rates every stage would *observe* under credit-based backpressure once
queues stop growing.  Contrasting it with the plan's unthrottled
lambda-hat expectation identifies which stages lie about the workload.
No production path runs it: ``test_backpressure.py`` uses it as an oracle,
checking that the fluid engine's long-run behaviour and the
WorkloadEstimator's corrections agree with the theory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.physical import PhysicalPlan, Stage
from repro.engine.runtime import MBIT_BYTES
from repro.errors import SimulationError


@dataclass(frozen=True)
class StageRates:
    """Observed steady-state rates of one stage under backpressure."""

    stage: str
    input_eps: float
    processed_eps: float
    output_eps: float
    #: Fraction of the unthrottled expectation actually flowing (1 = no
    #: backpressure anywhere upstream of or at this stage).
    throughput_ratio: float


class CapacityModel:
    """Protocol: what the analysis needs to know about resources."""

    def stage_capacity_eps(self, stage: Stage) -> float:  # pragma: no cover
        raise NotImplementedError

    def link_bandwidth_mbps(self, src: str, dst: str) -> float:  # pragma: no cover
        raise NotImplementedError


class TopologyCapacityModel(CapacityModel):
    """Reads capacities from a topology (effective rates, so stragglers
    and failures are reflected)."""

    def __init__(self, topology) -> None:
        self._topology = topology

    def stage_capacity_eps(self, stage: Stage) -> float:
        total = 0.0
        for task in stage.tasks:
            site = self._topology.site(task.site)
            if site.failed:
                continue
            total += site.effective_proc_rate_eps / stage.cost
        return total

    def link_bandwidth_mbps(self, src: str, dst: str) -> float:
        return self._topology.bandwidth_mbps(src, dst)


def _link_limited_flow(
    up: Stage,
    down: Stage,
    offered_by_site: dict[str, float],
    capacities: CapacityModel,
) -> float:
    """Events/s of ``up``'s output that the WAN admits towards ``down``.

    Balanced partitioning splits each upstream site's output across the
    downstream tasks; every inter-site flow is clipped at its link capacity
    and local flows pass freely.
    """
    placement = down.placement()
    total_tasks = sum(placement.values())
    if total_tasks == 0:
        return 0.0
    event_bytes = up.output_event_bytes
    admitted = 0.0
    for src_site, offered in offered_by_site.items():
        for dst_site, count in placement.items():
            share = offered * count / total_tasks
            if src_site == dst_site:
                admitted += share
                continue
            cap_eps = (
                capacities.link_bandwidth_mbps(src_site, dst_site)
                * MBIT_BYTES
                / event_bytes
            )
            admitted += min(share, cap_eps)
    return admitted


def steady_state_rates(
    plan: PhysicalPlan,
    source_generation_eps: dict[str, float],
    capacities: CapacityModel,
) -> dict[str, StageRates]:
    """The backpressure fixed point: throttled rates per stage.

    Propagates topologically: each stage's observed input is its upstreams'
    admitted output (clipped by link capacities), its processing rate is
    clipped by compute capacity, and its output is the processed rate times
    the chained selectivity.  This is exactly what the metric monitor would
    report after queues reach their bounds - the "lie" that Section 3.3's
    lambda-hat recursion corrects.
    """
    expected = plan.expected_stage_rates(dict(source_generation_eps))
    observed: dict[str, StageRates] = {}
    out_by_site: dict[str, dict[str, float]] = {}

    for stage in plan.topological_stages():
        if stage.is_source:
            gen = float(source_generation_eps.get(stage.name, 0.0))
            capacity = capacities.stage_capacity_eps(stage)
            processed = min(gen, capacity)
            output = processed * stage.selectivity
            site = stage.pinned_site
            if site is None:
                raise SimulationError(
                    f"source stage {stage.name!r} not pinned"
                )
            out_by_site[stage.name] = {site: output}
            exp_out = max(expected[stage.name]["output"], 1e-12)
            observed[stage.name] = StageRates(
                stage=stage.name,
                input_eps=gen,
                processed_eps=processed,
                output_eps=output,
                throughput_ratio=min(1.0, output / exp_out),
            )
            continue

        admitted = 0.0
        for up in plan.upstream_stages(stage.name):
            admitted += _link_limited_flow(
                up, stage, out_by_site.get(up.name, {}), capacities
            )
        capacity = capacities.stage_capacity_eps(stage)
        processed = min(admitted, capacity)
        output = processed * stage.selectivity

        placement = stage.placement()
        total_tasks = sum(placement.values())
        out_by_site[stage.name] = (
            {
                site: output * count / total_tasks
                for site, count in placement.items()
            }
            if total_tasks
            else {}
        )
        exp_out = max(expected[stage.name]["output"], 1e-12)
        observed[stage.name] = StageRates(
            stage=stage.name,
            input_eps=admitted,
            processed_eps=processed,
            output_eps=output,
            throughput_ratio=min(1.0, output / exp_out),
        )
    return observed


def bottleneck_stages(
    plan: PhysicalPlan,
    source_generation_eps: dict[str, float],
    capacities: CapacityModel,
    *,
    tolerance: float = 0.999,
) -> list[str]:
    """Stages where throughput is first lost (the backpressure origins).

    A stage is an origin when its own throughput ratio drops below its
    upstreams' minimum - the loss happened *here* (compute or inbound
    links), not inherited from above.
    """
    observed = steady_state_rates(plan, source_generation_eps, capacities)
    origins: list[str] = []
    for stage in plan.topological_stages():
        rates = observed[stage.name]
        upstream_ratio = min(
            (
                observed[u.name].throughput_ratio
                for u in plan.upstream_stages(stage.name)
            ),
            default=1.0,
        )
        if rates.throughput_ratio < upstream_ratio * tolerance:
            origins.append(stage.name)
    return origins
