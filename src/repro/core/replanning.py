"""Query re-planning with state preservation (Section 4.3).

The re-planner owns the query's alternative logical plans (produced by
:mod:`repro.planner.enumerate` at query-registration time) and, when asked,
proposes the best *state-safe* alternative: only candidates whose stateful
sub-plans are common with the running plan are considered, because only
those can restore the old execution's state (windowed operators are exempt -
their short, finite state is re-initialized at the window boundary anyway).

A proposal is only returned when it beats the current plan's estimated cost
by a hysteresis margin, so the controller never flip-flops between plans of
near-equal cost under measurement noise.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import WaspConfig
from ..engine.logical import LogicalPlan, can_replace_preserving_state
from ..engine.physical import PhysicalPlan
from ..errors import InfeasiblePlacementError
from ..planner.cost import (
    DeploymentEstimate,
    choose_best_deployment,
    estimate_deployment,
)
from ..planner.placement import NetworkView

#: A candidate must be at least this much cheaper than the incumbent.
HYSTERESIS = 0.9


@dataclass(frozen=True)
class ReplanProposal:
    """A vetted alternative deployment."""

    estimate: DeploymentEstimate
    current_score_ms: float

    @property
    def new_plan_name(self) -> str:
        return self.estimate.logical.name


class Replanner:
    """Evaluates a query's plan variants against the running plan."""

    def __init__(
        self,
        variants: list[LogicalPlan],
        config: WaspConfig | None = None,
    ) -> None:
        self._variants = list(variants)
        self._config = config or WaspConfig.paper_defaults()

    @property
    def variants(self) -> list[LogicalPlan]:
        return list(self._variants)

    def safe_candidates(self, current: LogicalPlan) -> list[LogicalPlan]:
        """Variants that can replace ``current`` without losing state."""
        return [
            v
            for v in self._variants
            if v.name != current.name
            and can_replace_preserving_state(current, v)
        ]

    def propose(
        self,
        current_logical: LogicalPlan,
        current_physical: PhysicalPlan,
        network: NetworkView,
        available_slots: dict[str, int],
        source_generation_eps: dict[str, float],
        *,
        require_improvement: bool = True,
    ) -> ReplanProposal | None:
        """Best state-safe alternative, or None when nothing qualifies.

        ``available_slots`` should already include the slots the current
        deployment would release - re-planning replaces the entire
        execution, so the candidate may reuse them.
        """
        candidates = self.safe_candidates(current_logical)
        if not candidates:
            return None

        # Shared stages keep their live parallelism; new stages start at the
        # initial parallelism (1 in the paper's configuration).
        parallelism = {
            name: stage.parallelism
            for name, stage in current_physical.stages.items()
            if stage.parallelism > 0
        }

        current_estimate = estimate_deployment(
            current_logical,
            network,
            available_slots,
            source_generation_eps,
            alpha=self._config.alpha,
            parallelism=parallelism,
        )
        current_score = current_estimate.delay_score_ms

        try:
            best = choose_best_deployment(
                candidates,
                network,
                available_slots,
                source_generation_eps,
                alpha=self._config.alpha,
                parallelism=parallelism,
            )
        except InfeasiblePlacementError:
            return None

        if require_improvement and current_estimate.feasible:
            if not best.delay_score_ms < current_score * HYSTERESIS:
                return None

        return ReplanProposal(estimate=best, current_score_ms=current_score)
