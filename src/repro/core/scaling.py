"""Operator-scaling factor computation (Section 4.2).

WASP computes the new parallelism of a bottleneck operator from the ratio of
the actual (expected) input rate to the observed processing rate, following
DS2's rate-based model:

    p' = ceil( lambda_hat_I / lambda_P * p )

which is the minimum parallelism that resolves the bottleneck.  For network
bottlenecks, the scale-out factor is "the ratio between the stream rate that
cannot be handled over the bandwidth availability" - each additional task
placed behind a different link absorbs that link's worth of traffic.

Scale-down is deliberately gradual: one task per iteration, and only for a
stage the round's diagnosis found wasteful
(:attr:`~repro.core.diagnosis.Health.WASTEFUL`: no constrained link, no
growing backlog, and the expected input within 0.8 x the capacity left
without the smallest task); the policy then checks that the bandwidth to
and from the remaining sites carries the relayed load (the paper
prioritizes performance stability over resource utilization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import WaspConfig
from ..engine.physical import Stage
from .diagnosis import StageDiagnosis

#: Cap on additional tasks acquired per adaptation round, preventing
#: resource hoarding (Section 6.2).
MAX_SCALE_OUT_PER_ROUND = 4


@dataclass(frozen=True)
class ScaleDecision:
    """A computed parallelism change for one stage."""

    stage: str
    current: int
    target: int

    @property
    def delta(self) -> int:
        return self.target - self.current


def compute_scale_up_target(
    stage: Stage,
    diagnosis: StageDiagnosis,
    config: WaspConfig | None = None,
) -> ScaleDecision:
    """DS2-style minimum parallelism for a compute bottleneck.

    ``lambda_P`` is taken as the stage's current processing *capacity* (the
    fluid engine runs tasks at capacity when backlogged, so observed
    lambda_P equals capacity during a bottleneck); using capacity rather
    than a noisy observation makes the target the true minimum.
    """
    config = config or WaspConfig.paper_defaults()
    p = max(1, stage.parallelism)
    capacity = diagnosis.processing_capacity_eps
    if capacity <= 0:
        # No live capacity (e.g. right after failure): size from scratch
        # assuming homogeneous tasks - double until reviewed next round.
        return ScaleDecision(stage.name, p, p * 2)
    # Accumulated backlog (e.g. after a failure, Section 8.6) is treated as
    # extra rate to absorb within one monitoring interval, so recovery
    # provisions enough capacity to drain the queue quickly.
    effective_input = diagnosis.expected_input_eps + (
        diagnosis.input_backlog / config.monitor_interval_s
    )
    ratio = effective_input / capacity
    target = max(p + 1, math.ceil(ratio * p))
    target = min(target, p + MAX_SCALE_OUT_PER_ROUND)
    return ScaleDecision(stage.name, p, target)


def compute_scale_out_target(
    stage: Stage, diagnosis: StageDiagnosis
) -> ScaleDecision:
    """Additional tasks needed to spread constrained links' excess load.

    For each constrained inbound link, the unhandled stream rate is the
    deficit between the expected flow and the link's capacity; dividing the
    total deficit by the per-link absorbable rate (the link capacity itself,
    since a new task behind a fresh link absorbs up to its share) gives the
    number of extra tasks, which is then re-validated by the placement
    solver.
    """
    p = max(1, stage.parallelism)
    if not diagnosis.constrained_links:
        return ScaleDecision(stage.name, p, p)
    extra = 0
    for link in diagnosis.constrained_links:
        if link.capacity_eps <= 0:
            extra += 1
            continue
        # Each new task takes over 1/p' of the flow; approximating with the
        # current per-task share keeps the estimate conservative (>= 1).
        per_task_flow = link.expected_flow_eps / p
        deficit_tasks = math.ceil(
            link.deficit_eps / max(per_task_flow, link.capacity_eps * 0.1)
        )
        extra += max(1, deficit_tasks)
    extra = min(extra, MAX_SCALE_OUT_PER_ROUND)
    target = p + extra
    # Never target a parallelism below the DS2 compute minimum: a smaller
    # p' cannot process the expected stream at all, so the anti-hoarding
    # cap yields to viability (Section 4.2's "minimum parallelism value
    # that can effectively resolve the bottleneck").
    if diagnosis.processing_capacity_eps > 0:
        per_task_rate = diagnosis.processing_capacity_eps / p
        ds2_minimum = math.ceil(
            diagnosis.expected_input_eps / max(per_task_rate, 1e-9)
        )
        target = max(target, min(ds2_minimum, p + 2 * MAX_SCALE_OUT_PER_ROUND))
    return ScaleDecision(stage.name, p, target)


def pick_scale_down_site(stage: Stage) -> str:
    """Choose which task to terminate: prefer sites not co-located with the
    rest of the stage (singleton sites), reducing inter-site traffic
    (Section 4.2 prioritizes tasks not co-located with up/downstream)."""
    placement = stage.placement()
    singletons = sorted(s for s, n in placement.items() if n == 1)
    if len(singletons) < len(placement) and singletons:
        return singletons[0]
    # All sites equal: drop from the most-populated site (cheapest relay).
    return max(sorted(placement), key=lambda s: placement[s])
