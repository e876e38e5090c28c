"""Exception hierarchy for the WASP reproduction.

Every error raised by this package derives from :class:`WaspError` so callers
can catch the whole family with a single ``except`` clause.  Sub-classes are
grouped by the subsystem that raises them.
"""

from __future__ import annotations


class WaspError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(WaspError):
    """An invalid configuration value was supplied."""


class TopologyError(WaspError):
    """The WAN topology was queried or mutated inconsistently."""


class UnknownSiteError(TopologyError):
    """A site name does not exist in the topology."""

    def __init__(self, site: str) -> None:
        super().__init__(f"unknown site: {site!r}")
        self.site = site


class PlanError(WaspError):
    """A logical or physical plan is malformed."""


class CycleError(PlanError):
    """A logical plan contains a cycle (plans must be DAGs)."""


class PlacementError(WaspError):
    """The WAN-aware placement ILP could not be solved."""


class InfeasiblePlacementError(PlacementError):
    """No task placement satisfies the bandwidth/slot constraints (Eq. 2-5)."""


class SchedulingError(WaspError):
    """The scheduler could not deploy or redeploy a physical plan."""


class InsufficientSlotsError(SchedulingError):
    """Not enough computing slots are available for a deployment."""


class StateError(WaspError):
    """Operator state was accessed or migrated inconsistently."""


class MigrationError(StateError):
    """A state migration plan could not be constructed or executed."""


class AdaptationError(WaspError):
    """The reconfiguration manager failed to apply an adaptation action."""


class AdaptationRollbackError(AdaptationError):
    """An adaptation action failed mid-flight and its snapshot was restored.

    Raised by the transactional executor when post-apply verification finds
    the system inconsistent (e.g. a site died while a state transfer was in
    flight).  The rollback itself has already happened when this propagates.
    """


class SimulationError(WaspError):
    """The simulation kernel was driven into an invalid configuration."""


class ChaosError(WaspError):
    """A chaos-injection fault spec is invalid or cannot be applied."""


class ObsError(WaspError):
    """An observability record, sink or trace file is invalid."""
