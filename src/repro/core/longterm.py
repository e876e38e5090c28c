"""Long-term dynamics: periodic background re-planning (Section 6.2).

Short-term dynamics are handled reactively by the Figure-6 policy.  But
some dynamics "usually follow a specific pattern and can be predicted"
(e.g. the daily workload shift of Section 2.2): for those, WASP
"periodically re-evaluat[es] the query plan in the background".

:class:`LongTermPlanner` implements that background loop: on its own (much
slower) cadence it forecasts the source rates a horizon ahead, asks the
re-planner whether a different plan would serve the *forecast* better than
the current one, and - only when the improvement clears the hysteresis -
executes the switch proactively, before the shift hits.

Forecasting itself is explicitly out of the paper's scope ("How to
accurately model/profile the dynamics itself is out of the scope of this
work"), so the planner reads an :class:`OracleForecaster`: it asks the
workload model directly, which is exact for the synthetic diurnal trace
and stands in for an offline profile.
"""

from __future__ import annotations

from ..engine.runtime import WorkloadModel
from .actions import ReplanAction
from .controller import AdaptationRecord, ReconfigurationManager


class OracleForecaster:
    """Reads the workload model directly (a perfect offline profile)."""

    def __init__(self, workload: WorkloadModel, source_names: list[str]):
        self._workload = workload
        self._sources = list(source_names)

    def forecast(self, t_s: float) -> dict[str, float]:
        """Per-source generation rates at ``t_s``."""
        rates = self._workload.generation_rates(self._sources, t_s)
        return dict(zip(self._sources, rates))


#: How often the background re-evaluation runs (seconds).  Much slower than
#: the reactive monitor: Section 6.2's loop exists so the reactive path is
#: not bothered with predictable shifts.
PERIOD_S = 600.0
#: How far ahead to forecast (seconds): long enough to cover the re-planning
#: overhead, short enough to stay accurate.
HORIZON_S = 120.0


class LongTermPlanner:
    """Background plan re-evaluation against forecast workload."""

    def __init__(
        self,
        manager: ReconfigurationManager,
        forecaster: OracleForecaster,
    ) -> None:
        self.manager = manager
        self.forecaster = forecaster

    @property
    def history(self) -> tuple[AdaptationRecord, ...]:
        """The proactive re-plans this loop committed (a view over the
        manager's adaptation log)."""
        return tuple(r for r in self.manager.history if r.long_term)

    def background_round(self, now_s: float) -> AdaptationRecord | None:
        """One background iteration: forecast, evaluate, maybe re-plan.

        Uses the same hysteresis as reactive re-planning, so near-equal
        plans never flip; a proactive switch only happens when the forecast
        clearly favours an alternative.  Returns the committed re-plan, or
        None when nothing was proposed or every attempt rolled back.
        """
        manager = self.manager
        if manager.replanner is None:
            return None
        forecast = self.forecaster.forecast(now_s + HORIZON_S)
        plan = manager.runtime.plan
        # Skip while any stage is mid-transition: the reactive loop owns it.
        if any(
            manager.runtime.is_suspended(s.name)
            for s in plan.topological_stages()
        ):
            return None
        slots = dict(manager.runtime.topology.available_slots())
        for stage in plan.topological_stages():
            for site, count in stage.placement().items():
                slots[site] = slots.get(site, 0) + count
        manager.wan_monitor.refresh()
        proposal = manager.replanner.propose(
            plan.logical,
            plan,
            manager.wan_monitor,
            slots,
            forecast,
        )
        if proposal is None:
            return None
        action = ReplanAction(
            proposal.estimate.logical.name,
            "long-term dynamics: proactive re-plan for forecast workload "
            f"(score {proposal.estimate.delay_score_ms:.1f}ms vs "
            f"{proposal.current_score_ms:.1f}ms)",
            proposal.estimate,
        )
        return manager.execute(action, now_s, long_term=True)
