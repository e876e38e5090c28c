"""Actual-workload estimation (Section 3.3).

Under backpressure, the observed input/output rates of an operator reflect
the *throttled* stream, not the actual workload: a bottleneck operator tells
its upstreams to slow down, so every rate measured downstream of the
bottleneck is a lie.  To size adaptations correctly the controller must
reason about the rates the query *would* see if it were unconstrained, which
are computed recursively from the source generation rates:

    lambda_hat_P = lambda_hat_I = sum_u lambda_hat_O[u]   (or lambda_O[src])
    lambda_hat_O = sigma * lambda_hat_I

Selectivities sigma come from the plan (each stage's chained operator
selectivity); the metric window carries no observed output rate or sigma.
The fluid engine realises the plan sigma exactly: every tick, each non-sink
stage emits sigma times what it processed, on both engine backends
(``tests/engine/test_metrics.py::TestPlanSelectivity``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.metrics import MetricsWindow
from ..engine.physical import PhysicalPlan, Stage


@dataclass(frozen=True)
class StageEstimate:
    """Expected (unthrottled) rates for one stage."""

    stage: str
    input_eps: float
    output_eps: float


class WorkloadEstimator:
    """Computes lambda-hat for every stage of a physical plan."""

    def estimate(
        self, plan: PhysicalPlan, window: MetricsWindow
    ) -> dict[str, StageEstimate]:
        """Expected rates per stage from the window's source generation.

        Source generation is observed at the sources themselves (the
        external arrival rate), which backpressure cannot distort - events
        queue at the source site but the generation counter still ticks.
        """
        rates = plan.expected_stage_rates(dict(window.source_generation_eps))
        return {
            name: StageEstimate(
                stage=name,
                input_eps=vals["input"],
                output_eps=vals["output"],
            )
            for name, vals in rates.items()
        }

    def upstream_flows_eps(
        self,
        plan: PhysicalPlan,
        stage: Stage,
        estimates: dict[str, StageEstimate],
    ) -> dict[tuple[str, str], float]:
        """Expected per-(upstream site, event-bytes) traffic into ``stage``.

        Balanced partitioning: each upstream task emits its share of the
        upstream stage's expected output.  Keyed by (site, stage-name) pairs
        flattened to site because event size is per upstream stage; the
        caller converts to placement flows.
        """
        flows: dict[tuple[str, str], float] = {}
        for up in plan.upstream_stages(stage.name):
            est = estimates.get(up.name)
            if est is None:
                continue
            placement = up.placement()
            total = sum(placement.values())
            if total == 0:
                continue
            for site, count in placement.items():
                key = (up.name, site)
                flows[key] = flows.get(key, 0.0) + est.output_eps * count / total
        return flows
