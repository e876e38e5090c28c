"""Global configuration for the WASP reproduction.

:class:`WaspConfig` collects the tunables that the paper either states
explicitly (Section 8.2: ``alpha = 0.8``, ``p_max = 3``, a 40-second
monitoring interval, a 30-second checkpointing interval) or leaves as policy
thresholds (``t_max``, the maximum tolerable adaptation overhead used by the
Figure-6 decision tree), plus the few knobs the ablations, the fuzz
generator and the CLI vary.  Settings nobody varies are named constants
beside their one reader.  All experiments build their configuration from
:func:`WaspConfig.paper_defaults` so the reproduction stays faithful by
default while remaining easy to ablate.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Iterable

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
        waste_utilization: Utilization threshold below which a stage is
            flagged as wasteful and considered for scale-down (Section 4.2).
        estimation_error: Relative error injected into the WAN monitor's
            bandwidth measurements; the alpha headroom must absorb it.
        migration_relays: Route state migrations through the best single
            relay site when that beats the direct link (bulk transfers
            only; see network/relay.py).
        engine_backend: "reference" executes the per-parcel FluidQueue
            loops in :mod:`repro.engine.runtime`; "dense" runs the numpy
            structure-of-arrays kernel in :mod:`repro.engine.dense`,
            converting to/from the reference representation only at
            adaptation boundaries; "auto" picks one of the two from the
            initial plan's potential WAN flows
            (:func:`repro.engine.dense.resolve_backend`).
        seed: Master seed from which every component RNG stream is derived.
    """

    alpha: float = 0.8
    p_max: int = 3
    t_max_s: float = 30.0
    monitor_interval_s: float = 40.0
    checkpoint_interval_s: float = 30.0
    waste_utilization: float = 0.5
    estimation_error: float = 0.0
    migration_relays: bool = False
    engine_backend: str = "auto"
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
        if not 0.0 <= self.waste_utilization < 1.0:
            raise ConfigurationError(
                "waste_utilization must be in [0, 1), got "
                f"{self.waste_utilization}"
            )
        if self.estimation_error < 0:
            raise ConfigurationError(
                f"estimation_error must be >= 0, got {self.estimation_error}"
            )
        if self.engine_backend not in ENGINE_BACKENDS:
            raise ConfigurationError(
                f"engine_backend must be one of {ENGINE_BACKENDS}, got "
                f"{self.engine_backend!r}"
            )

    @classmethod
    def paper_defaults(cls) -> "WaspConfig":
        """Return the configuration used throughout Section 8."""
        return cls()

    @classmethod
    def check_fields(cls, names: Iterable[str]) -> None:
        """Raise :class:`ConfigurationError` naming any unknown field."""
        unknown = sorted(set(names) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigurationError(
                f"unknown WaspConfig field(s): {', '.join(unknown)}"
            )

    def with_overrides(self, **overrides: Any) -> "WaspConfig":
        """Return a copy with the given fields replaced (and re-validated)."""
        self.check_fields(overrides)
        return replace(self, **overrides)

