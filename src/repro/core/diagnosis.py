"""Execution-health diagnosis (Sections 3.2 and 3.3).

An execution is *healthy* when it is unconstrained by its allocated
resources: every task processes its input as it arrives
(``lambda_P = lambda_I``) and no network queue builds between an operator
and its upstreams (``lambda_I ~= sum_u lambda_O[u]``).  When the conditions
fail, the diagnosis distinguishes:

* **compute-bound** - the stage's expected input exceeds its processing
  capacity, or its input queues grew over the window while its tasks ran at
  full utilization;
* **network-bound** - sender-side WAN queues feeding the stage grew, or an
  expected flow exceeds the measured link bandwidth headroom;
* **wasteful** - utilization is persistently low with empty queues and
  parallelism above the minimum (a scale-down candidate, Section 4.2).

Transient fluctuations are ignored (Section 7): backlog must exceed what the
stage can absorb within :data:`BACKLOG_HEALTH_S` before a bottleneck is
declared.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Protocol

from ..config import WaspConfig
from ..engine.metrics import MetricsWindow, StageMetrics
from ..engine.physical import PhysicalPlan, Stage
from ..engine.runtime import MBIT_BYTES
from ..planner.placement import NetworkView
from .estimator import StageEstimate

#: Queueing delay (seconds) below which an execution is still considered
#: healthy; absorbs transient workload spikes, which the paper explicitly
#: ignores (Section 7).
BACKLOG_HEALTH_S = 2.0


class Health(enum.Enum):
    HEALTHY = "healthy"
    COMPUTE_BOUND = "compute_bound"
    NETWORK_BOUND = "network_bound"
    WASTEFUL = "wasteful"


@dataclass(frozen=True)
class LinkPressure:
    """One constrained inbound link of a stage."""

    src_site: str
    dst_site: str
    expected_flow_eps: float
    capacity_eps: float

    @property
    def deficit_eps(self) -> float:
        return max(0.0, self.expected_flow_eps - self.capacity_eps)


@dataclass(frozen=True)
class StageDiagnosis:
    """Health verdict and supporting evidence for one stage."""

    stage: str
    health: Health
    expected_input_eps: float
    processing_capacity_eps: float
    utilization: float
    input_backlog: float
    input_backlog_growth: float
    constrained_links: tuple[LinkPressure, ...] = ()
    #: Sites whose tasks cannot keep up with their balanced input share
    #: (stragglers / weak slots): their per-site queue backs up even when
    #: the stage's aggregate capacity looks sufficient.
    slow_sites: tuple[str, ...] = ()


class Diagnoser:
    """Applies the Section-3.2 health conditions to a metrics window."""

    def __init__(self, config: WaspConfig | None = None) -> None:
        self._config = config or WaspConfig.paper_defaults()

    def diagnose(
        self,
        plan: PhysicalPlan,
        window: MetricsWindow,
        estimates: dict[str, StageEstimate],
        network: "DiagnosisView",
    ) -> dict[str, StageDiagnosis]:
        """Classify every non-source stage (sources are external, pinned)."""
        results: dict[str, StageDiagnosis] = {}
        for stage in plan.topological_stages():
            if stage.is_source:
                continue
            metrics = window.stages.get(stage.name)
            estimate = estimates.get(
                stage.name,
                StageEstimate(stage.name, 0.0, 0.0),
            )
            results[stage.name] = self._diagnose_stage(
                stage, metrics, estimate, network
            )
        return results

    # ------------------------------------------------------------------ #

    def _stage_capacity_eps(
        self, stage: Stage, network: "DiagnosisView"
    ) -> float:
        total = 0.0
        for task in stage.tasks:
            total += network.site_proc_rate_eps(task.site) / stage.cost
        return total

    def _diagnose_stage(
        self,
        stage: Stage,
        metrics: StageMetrics | None,
        estimate: StageEstimate,
        network: "DiagnosisView",
    ) -> StageDiagnosis:
        config = self._config
        capacity = self._stage_capacity_eps(stage, network)
        utilization = metrics.utilization if metrics else 0.0
        input_backlog = metrics.input_backlog if metrics else 0.0
        backlog_growth = metrics.input_backlog_growth if metrics else 0.0

        # Backlog tolerable within the health window?  (Transient spikes
        # are ignored, Section 7.)
        backlog_delay_s = input_backlog / capacity if capacity > 0 else (
            float("inf") if input_backlog > 0 else 0.0
        )

        constrained = self._constrained_links(stage, metrics, estimate, network)
        slow_sites = self._slow_sites(stage, metrics, estimate, network)

        compute_bound = (
            estimate.input_eps > capacity * 1.001
            or bool(slow_sites)
            or (
                backlog_delay_s > BACKLOG_HEALTH_S
                and utilization > 0.9
            )
            or (backlog_growth > 0 and utilization > 0.95 and
                backlog_delay_s > BACKLOG_HEALTH_S / 2)
        )
        network_bound = bool(constrained)

        if compute_bound and not network_bound:
            health = Health.COMPUTE_BOUND
        elif network_bound and not compute_bound:
            health = Health.NETWORK_BOUND
        elif compute_bound and network_bound:
            # Both constrained: the network starves or floods the operator;
            # treat as network-bound first (scale-out also adds compute).
            health = Health.NETWORK_BOUND
        elif (
            utilization < config.waste_utilization
            and input_backlog <= capacity * BACKLOG_HEALTH_S
            and backlog_growth <= 0
            and stage.parallelism > 1
            and self._over_provisioned(stage, estimate, network)
        ):
            health = Health.WASTEFUL
        else:
            health = Health.HEALTHY

        return StageDiagnosis(
            stage=stage.name,
            health=health,
            expected_input_eps=estimate.input_eps,
            processing_capacity_eps=capacity,
            utilization=utilization,
            input_backlog=input_backlog,
            input_backlog_growth=backlog_growth,
            constrained_links=tuple(constrained),
            slow_sites=slow_sites,
        )

    def _slow_sites(
        self,
        stage: Stage,
        metrics: StageMetrics | None,
        estimate: StageEstimate,
        network: "DiagnosisView",
    ) -> tuple[str, ...]:
        """Sites whose tasks cannot drain their balanced input share.

        Balanced partitioning routes ``lambda_hat_I / p`` to every task, so
        a site with ``n`` tasks receives ``n * share`` but only processes
        ``n * effective_rate / cost``: when the share exceeds the rate, the
        per-site queue grows without bound - the straggler signature.  A
        standing per-site backlog beyond the site's health window is the
        observational confirmation.
        """
        if metrics is None:
            return ()
        placement = stage.placement()
        p = sum(placement.values())
        if p == 0:
            return ()
        share_eps = estimate.input_eps / p
        slow: list[str] = []
        for site in sorted(placement):
            rate_eps = network.site_proc_rate_eps(site) / stage.cost
            backlog = metrics.input_backlog_by_site.get(site, 0.0)
            drain_slack = max(rate_eps, 1.0) * BACKLOG_HEALTH_S
            model_slow = share_eps > rate_eps * 1.001 and share_eps > 0
            observed_slow = backlog > drain_slack
            if model_slow or observed_slow:
                slow.append(site)
        # Only meaningful as an imbalance signal when some site is fine.
        if len(slow) == len(placement):
            return tuple(slow) if share_eps > 0 else ()
        return tuple(slow)

    def _constrained_links(
        self,
        stage: Stage,
        metrics: StageMetrics | None,
        estimate: StageEstimate,
        network: "DiagnosisView",
    ) -> list[LinkPressure]:
        """Inbound links whose WAN queue is growing beyond the health slack."""
        if metrics is None:
            return []
        links: list[LinkPressure] = []
        for (src_site, dst_site), backlog in sorted(metrics.net_backlog.items()):
            growth = metrics.net_backlog_growth.get((src_site, dst_site), 0.0)
            inflow = metrics.net_inflow.get((src_site, dst_site), 0.0)
            # Event size on this link is the upstream's output size; the
            # inflow rate approximates the achieved link throughput.
            bandwidth_mbps = network.bandwidth_mbps(src_site, dst_site)
            # Use the dominant upstream's event size for conversion.
            event_bytes = self._inbound_event_bytes(stage, network)
            capacity_eps = bandwidth_mbps * MBIT_BYTES / event_bytes
            drain_slack = capacity_eps * BACKLOG_HEALTH_S
            growing = growth > 1e-6 and backlog > drain_slack * 0.1
            # A standing queue that exceeds what the link can drain within
            # the health window is just as constrained as a growing one -
            # it keeps emitting stale events until acted upon.
            standing = backlog > drain_slack
            if growing or standing:
                links.append(
                    LinkPressure(
                        src_site=src_site,
                        dst_site=dst_site,
                        expected_flow_eps=inflow + growth / max(
                            1.0, self._config.monitor_interval_s
                        ),
                        capacity_eps=capacity_eps,
                    )
                )
        return links

    def _inbound_event_bytes(
        self, stage: Stage, network: "DiagnosisView"
    ) -> float:
        """Representative event size for traffic entering ``stage``."""
        plan = network.plan_for(stage.name)
        if plan is None:
            return stage.head.event_bytes
        upstream = plan.upstream_stages(stage.name)
        if not upstream:
            return stage.head.event_bytes
        return max(u.output_event_bytes for u in upstream)

    def _over_provisioned(
        self, stage: Stage, estimate: StageEstimate, network: "DiagnosisView"
    ) -> bool:
        """Would one fewer task still leave capacity headroom?

        The 0.8 factor mirrors the placement headroom alpha: the expected
        rate must fit within the reduced capacity with slack, or removing a
        task would immediately re-create the bottleneck it was added for.
        """
        if stage.parallelism <= 1:
            return False
        per_task = [
            network.site_proc_rate_eps(t.site) / stage.cost
            for t in stage.tasks
        ]
        smallest = min(per_task)
        remaining = sum(per_task) - smallest
        return estimate.input_eps < remaining * 0.8


class DiagnosisView(NetworkView, Protocol):
    """What diagnosis reads: the WAN view of the whole control plane
    (:class:`~repro.planner.placement.NetworkView`), each site's processing
    rate and the plan a stage runs in.  The controller implements it over
    the WAN monitor and the runtime, so the diagnoser stays free of wiring
    concerns."""

    def site_proc_rate_eps(self, site: str) -> float: ...

    def plan_for(self, stage_name: str) -> PhysicalPlan | None: ...
