"""Global configuration for the WASP reproduction.

:class:`WaspConfig` collects the tunables that the paper either states
explicitly (Section 8.2: ``alpha = 0.8``, ``p_max = 3``, a 40-second
monitoring interval, a 30-second checkpointing interval) or leaves as policy
thresholds (``t_max``, the maximum tolerable adaptation overhead used by the
Figure-6 decision tree).  All experiments build their configuration from
:func:`WaspConfig.paper_defaults` so the reproduction stays faithful by
default while remaining easy to ablate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from .errors import ConfigurationError

#: Accepted values of :attr:`WaspConfig.engine_backend`.
ENGINE_BACKENDS = ("auto", "reference", "dense")


@dataclass(frozen=True)
class WaspConfig:
    """Tunable parameters of the WASP controller and its substrates.

    Attributes:
        alpha: Maximum bandwidth-utilization threshold used by the placement
            ILP (Constraints 2 and 3 of Section 4.1).  Must lie in (0, 1).
        p_max: Maximum parallelism a single adaptation round may scale an
            operator to before the policy prefers re-planning (Section 6.2).
        t_max_s: Maximum tolerable adaptation overhead in seconds; if the
            estimated state-migration time exceeds it the policy scales out
            and partitions the state instead (Sections 6.2 and 8.7.2).
        monitor_interval_s: Period of the global metric monitor / adaptation
            loop in seconds (Section 8.2 uses 40 s "to allow any adapted
            query to stabilize").
        checkpoint_interval_s: Localized checkpointing period (Section 8.3).
        tick_s: Simulation tick length in seconds.
        slo_s: Latency SLO used by the Degrade baseline (Section 8.4 sets
            10 s).
        backlog_health_s: Queueing delay below which an execution is still
            considered healthy; absorbs transient workload spikes, which the
            paper explicitly ignores (Section 7).
        waste_utilization: Utilization threshold below which a stage is
            flagged as wasteful and considered for scale-down (Section 4.2).
        scale_down_step: Number of tasks removed per scale-down iteration;
            the paper argues for a gradual reduction of 1 per iteration.
        max_scale_out_per_round: Cap on additional tasks acquired per
            adaptation round, preventing resource hoarding (Section 6.2).
        estimation_error: Relative error injected into the WAN monitor's
            bandwidth measurements; the alpha headroom must absorb it.
        seed: Master seed from which every component RNG stream is derived.
    """

    alpha: float = 0.8
    p_max: int = 3
    t_max_s: float = 30.0
    monitor_interval_s: float = 40.0
    checkpoint_interval_s: float = 30.0
    tick_s: float = 1.0
    slo_s: float = 10.0
    backlog_health_s: float = 2.0
    waste_utilization: float = 0.5
    scale_down_step: int = 1
    max_scale_out_per_round: int = 4
    estimation_error: float = 0.0
    reconfig_base_overhead_s: float = 2.0
    replan_deploy_overhead_s: float = 8.0
    replan_cooldown_s: float = 120.0
    #: Route state migrations through the best single relay site when that
    #: beats the direct link (bulk transfers only; see network/relay.py).
    migration_relays: bool = False
    #: Transactional adaptation: how often a rolled-back action is retried
    #: against re-measured bandwidth before falling through the technique
    #: chain (scale-out with state partitioning, then abandoning state).
    adaptation_max_retries: int = 2
    #: Simulated-time penalty added to the transition per retry attempt
    #: (bounded backoff: attempt k pays k * backoff on top of the transfer).
    adaptation_retry_backoff_s: float = 5.0
    #: Engine backend: "reference" executes the per-parcel FluidQueue loops
    #: in :mod:`repro.engine.runtime`; "dense" runs the numpy
    #: structure-of-arrays kernel in :mod:`repro.engine.dense`, converting
    #: to/from the reference representation only at adaptation boundaries;
    #: "auto" picks one of the two from the initial plan's potential WAN
    #: flows (:func:`repro.engine.dense.resolve_backend`).
    engine_backend: str = "auto"
    #: Age resolution of the dense backend's bucketed queues: each queue
    #: keeps this many tick-wide age buckets; events older than the window
    #: collapse into the last bucket (their exact mean generation time is
    #: preserved, so delay metrics stay exact).
    dense_age_buckets: int = 16
    seed: int = 20201207  # Middleware '20 started December 7, 2020.

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError(
                f"alpha must be in (0, 1), got {self.alpha}"
            )
        if self.p_max < 1:
            raise ConfigurationError(f"p_max must be >= 1, got {self.p_max}")
        if self.t_max_s <= 0:
            raise ConfigurationError(f"t_max_s must be > 0, got {self.t_max_s}")
        if self.monitor_interval_s <= 0:
            raise ConfigurationError(
                f"monitor_interval_s must be > 0, got {self.monitor_interval_s}"
            )
        if self.checkpoint_interval_s <= 0:
            raise ConfigurationError(
                "checkpoint_interval_s must be > 0, got "
                f"{self.checkpoint_interval_s}"
            )
        if self.tick_s <= 0:
            raise ConfigurationError(f"tick_s must be > 0, got {self.tick_s}")
        if self.slo_s <= 0:
            raise ConfigurationError(f"slo_s must be > 0, got {self.slo_s}")
        if not 0.0 <= self.waste_utilization < 1.0:
            raise ConfigurationError(
                "waste_utilization must be in [0, 1), got "
                f"{self.waste_utilization}"
            )
        if self.scale_down_step < 1:
            raise ConfigurationError(
                f"scale_down_step must be >= 1, got {self.scale_down_step}"
            )
        if self.max_scale_out_per_round < 1:
            raise ConfigurationError(
                "max_scale_out_per_round must be >= 1, got "
                f"{self.max_scale_out_per_round}"
            )
        if self.estimation_error < 0:
            raise ConfigurationError(
                f"estimation_error must be >= 0, got {self.estimation_error}"
            )
        if self.reconfig_base_overhead_s < 0:
            raise ConfigurationError(
                "reconfig_base_overhead_s must be >= 0, got "
                f"{self.reconfig_base_overhead_s}"
            )
        if self.replan_deploy_overhead_s < 0:
            raise ConfigurationError(
                "replan_deploy_overhead_s must be >= 0, got "
                f"{self.replan_deploy_overhead_s}"
            )
        if self.replan_cooldown_s < 0:
            raise ConfigurationError(
                "replan_cooldown_s must be >= 0, got "
                f"{self.replan_cooldown_s}"
            )
        if self.adaptation_max_retries < 0:
            raise ConfigurationError(
                "adaptation_max_retries must be >= 0, got "
                f"{self.adaptation_max_retries}"
            )
        if self.adaptation_retry_backoff_s < 0:
            raise ConfigurationError(
                "adaptation_retry_backoff_s must be >= 0, got "
                f"{self.adaptation_retry_backoff_s}"
            )
        if self.engine_backend not in ENGINE_BACKENDS:
            raise ConfigurationError(
                f"engine_backend must be one of {ENGINE_BACKENDS}, got "
                f"{self.engine_backend!r}"
            )
        if self.dense_age_buckets < 4:
            raise ConfigurationError(
                f"dense_age_buckets must be >= 4, got {self.dense_age_buckets}"
            )

    @classmethod
    def paper_defaults(cls) -> "WaspConfig":
        """Return the configuration used throughout Section 8."""
        return cls()

    def with_overrides(self, **overrides: Any) -> "WaspConfig":
        """Return a copy with the given fields replaced (and re-validated)."""
        return replace(self, **overrides)


DEFAULT_CONFIG = WaspConfig.paper_defaults()
