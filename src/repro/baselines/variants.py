"""Named controller variants used across the evaluation (Section 8).

Every experiment compares WASP against baselines drawn from the same space:

* ``no-adapt``   - deploy once, never react (Sections 8.4-8.6);
* ``degrade``    - no re-optimization; drop events older than the SLO
                   (Sections 8.4, 8.6; SLO = 10 s);
* ``re-assign``  - adapt only by task re-assignment (Section 8.5);
* ``scale``      - re-assign first, scale when no placement exists
                   (Section 8.5);
* ``re-plan``    - adapt only by query re-planning (Section 8.5);
* ``wasp``       - the full Figure-6 policy;
* ``wasp/random``, ``wasp/distant``, ``wasp/none`` - full policy with the
  Section 8.7.1 state-migration strategies.

A :class:`VariantSpec` is pure configuration; the experiment harness
(:mod:`repro.experiments.harness`) turns it into a wired controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.migration import MigrationStrategy
from ..core.policy import PolicyMode
from ..errors import ConfigurationError

#: Latency SLO of the Degrade baseline (Section 8.4 sets 10 s).
DEGRADE_SLO_S = 10.0


@dataclass(frozen=True)
class VariantSpec:
    """How one comparison line in a figure behaves."""

    name: str
    adapts: bool
    degrade_slo_s: float | None = None
    mode: PolicyMode = field(default_factory=PolicyMode.wasp)
    migration_strategy: MigrationStrategy = MigrationStrategy.WASP
    #: Attach the Section-6.2 background loop for predictable long-term
    #: dynamics (periodic proactive re-planning against a forecast).
    long_term: bool = False

    def __post_init__(self) -> None:
        if self.degrade_slo_s is not None and self.degrade_slo_s <= 0:
            raise ConfigurationError("degrade_slo_s must be > 0 when set")
        if self.degrade_slo_s is not None and self.adapts:
            raise ConfigurationError(
                "the Degrade baseline does not re-optimize; adapts must be "
                "False when degrade_slo_s is set"
            )


def no_adapt() -> VariantSpec:
    """Deploy once and ride out every dynamic."""
    return VariantSpec(name="No Adapt", adapts=False)


def degrade() -> VariantSpec:
    """Drop late events to hold the SLO; never re-optimize (Section 8.4)."""
    return VariantSpec(
        name="Degrade", adapts=False, degrade_slo_s=DEGRADE_SLO_S
    )


def reassign_only() -> VariantSpec:
    """Handle dynamics only by re-assigning tasks (fixed parallelism)."""
    return VariantSpec(
        name="Re-assign",
        adapts=True,
        mode=PolicyMode.reassign_only(),
    )


def scale_only() -> VariantSpec:
    """Re-assign first, scale operators when no placement exists."""
    return VariantSpec(
        name="Scale",
        adapts=True,
        mode=PolicyMode.scale_only(),
    )


def replan_only() -> VariantSpec:
    """Re-evaluate the execution plan only; parallelism never changes."""
    return VariantSpec(
        name="Re-plan",
        adapts=True,
        mode=PolicyMode.replan_only(),
    )


def wasp(
    migration_strategy: MigrationStrategy = MigrationStrategy.WASP,
) -> VariantSpec:
    """The full WASP policy, optionally with a baseline migration strategy."""
    suffix = (
        ""
        if migration_strategy is MigrationStrategy.WASP
        else f"/{migration_strategy.value}"
    )
    return VariantSpec(
        name=f"WASP{suffix}",
        adapts=True,
        mode=PolicyMode.wasp(),
        migration_strategy=migration_strategy,
    )


def wasp_long_term() -> VariantSpec:
    """WASP plus the background loop for predictable long-term dynamics."""
    return VariantSpec(
        name="WASP/long-term",
        adapts=True,
        mode=PolicyMode.wasp(),
        long_term=True,
    )


ALL_NAMED: dict[str, VariantSpec] = {
    spec.name: spec
    for spec in (
        no_adapt(),
        degrade(),
        reassign_only(),
        scale_only(),
        replan_only(),
        wasp(),
        wasp(MigrationStrategy.RANDOM),
        wasp(MigrationStrategy.DISTANT),
        wasp(MigrationStrategy.NONE),
        wasp_long_term(),
    )
}
