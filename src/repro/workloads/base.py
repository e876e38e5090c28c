"""Workload model base: per-source rates shaped by schedules.

A workload answers one question for the engine: how many raw events does
each source stage generate per second at time ``t``?  The answer combines

* a **base rate** per source (events/second at factor 1),
* a per-source **shape** (e.g. the Twitter diurnal cycle, Section 2.2),
* a global **factor schedule** installed by the dynamics driver (the
  Section 8.4 step changes, the Section 8.6 random walk).
"""

from __future__ import annotations

from typing import Sequence

from ..engine.runtime import WorkloadModel
from ..errors import ConfigurationError
from ..sim.schedule import Schedule


class ShapedWorkload(WorkloadModel):
    """Base rates x shape(source, t) x global factor schedule."""

    def __init__(
        self,
        base_rates_eps: dict[str, float],
        *,
        factor_schedule: Schedule | None = None,
        unscaled_sources: frozenset[str] = frozenset(),
    ) -> None:
        if not base_rates_eps:
            raise ConfigurationError("workload needs at least one source")
        for name, rate in base_rates_eps.items():
            if rate < 0:
                raise ConfigurationError(
                    f"source {name!r}: base rate must be >= 0, got {rate}"
                )
        self._base_rates = dict(base_rates_eps)
        self._factor_schedule = factor_schedule or Schedule.constant(1.0)
        #: Sources that generate at their base rate, outside the shape and
        #: the factor schedule.
        self._unscaled = frozenset(unscaled_sources)

    @property
    def source_names(self) -> list[str]:
        return sorted(self._base_rates)

    @property
    def factor_schedule(self) -> Schedule:
        return self._factor_schedule

    def set_factor_schedule(self, schedule: Schedule) -> None:
        """Install the dynamics driver's workload-factor schedule."""
        self._factor_schedule = schedule

    def base_rate_eps(self, source_stage: str) -> float:
        return self._base_rates.get(source_stage, 0.0)

    def shape(self, source_stage: str, t_s: float) -> float:
        """Per-source multiplicative shape; subclasses override (default 1)."""
        return 1.0

    def generation_rates(
        self, source_stages: Sequence[str], t_s: float
    ) -> list[float]:
        """Raw events/second per source at ``t_s``: ``base * shape *
        factor``, with the factor schedule read once; an unscaled source
        generates its base rate and an unknown one 0.0."""
        factor = self._factor_schedule.factor(t_s)
        base_rates = self._base_rates
        unscaled = self._unscaled
        rates = []
        for name in source_stages:
            base = base_rates.get(name)
            if base is None:
                rates.append(0.0)
            elif name in unscaled:
                rates.append(base)
            else:
                rates.append(base * self.shape(name, t_s) * factor)
        return rates
