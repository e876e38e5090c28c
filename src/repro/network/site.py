"""Sites and computing slots.

The paper abstracts each location's computational resources as *computing
slots*, each able to run exactly one task (Sections 3.1 and 7: "homogeneous
compute power across slots"); heterogeneity across sites is expressed only
through how many slots a site offers.  The testbed in Section 8.2 uses 8 edge
nodes with 2-4 slots each and 8 data-center nodes with 8 slots each.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..counters import VersionCounter
from ..errors import InsufficientSlotsError, TopologyError


class SiteKind(enum.Enum):
    """Whether a site is an edge cluster or a data center."""

    EDGE = "edge"
    DATA_CENTER = "data_center"


@dataclass
class Site:
    """One geo-distributed location offering computing slots.

    Attributes:
        name: Unique site identifier (e.g. ``"dc-oregon"``).
        kind: Edge cluster or data center.
        total_slots: Number of computing slots this site provides.
        proc_rate_eps: Events/second one slot can process for a unit-cost
            operator; operator cost scales this down.
    """

    name: str
    kind: SiteKind
    total_slots: int
    proc_rate_eps: float = 40_000.0
    _used_slots: int = field(default=0, repr=False)
    _failed: bool = field(default=False, repr=False)
    _slowdown: float = field(default=1.0, repr=False)
    #: The site-state counter of each topology holding the site, bumped
    #: by every health or rate change (``fail``, ``recover``,
    #: ``set_slowdown`` when they change the value).  Capacity caches key
    #: on it, so every writer of ``_failed``/``_slowdown`` must call
    #: :meth:`_state_changed`.
    _state_counters: list[VersionCounter] = field(
        default_factory=list, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.total_slots < 0:
            raise TopologyError(
                f"site {self.name!r}: total_slots must be >= 0, "
                f"got {self.total_slots}"
            )
        if self.proc_rate_eps <= 0:
            raise TopologyError(
                f"site {self.name!r}: proc_rate_eps must be > 0, "
                f"got {self.proc_rate_eps}"
            )

    @property
    def is_edge(self) -> bool:
        return self.kind is SiteKind.EDGE

    @property
    def slowdown(self) -> float:
        """Straggler factor: 1.0 is nominal, 4.0 means 4x slower slots."""
        return self._slowdown

    @property
    def effective_proc_rate_eps(self) -> float:
        """Per-slot processing rate after any straggler slowdown."""
        return self.proc_rate_eps / self._slowdown

    def _state_changed(self) -> None:
        for counter in self._state_counters:
            counter.value += 1

    def set_slowdown(self, factor: float) -> None:
        """Mark the site as a straggler (factor > 1) or restore it (1.0).

        Stragglers are one of the wide-area dynamics WASP targets
        (Section 1): the site keeps running, just slower, so the diagnosis
        sees a compute bottleneck and the policy re-assigns or scales.
        """
        if factor < 1.0:
            raise TopologyError(
                f"site {self.name!r}: slowdown must be >= 1, got {factor}"
            )
        if self._slowdown != factor:
            self._slowdown = float(factor)
            self._state_changed()

    @property
    def failed(self) -> bool:
        """True while the site's resources are revoked (failure injection)."""
        return self._failed

    @property
    def used_slots(self) -> int:
        return self._used_slots

    @property
    def available_slots(self) -> int:
        """Slots free for new tasks (``A[s]`` in the placement ILP).

        Never negative: a slot revocation racing an adaptation rollback can
        transiently leave ``used > total``; the deficit just means no new
        tasks fit until slots are restored or released.
        """
        if self._failed:
            return 0
        return max(0, self.total_slots - self._used_slots)

    def allocate(self, count: int = 1) -> None:
        """Claim ``count`` slots for running tasks."""
        if count < 0:
            raise TopologyError(f"cannot allocate {count} slots")
        if self._failed:
            raise InsufficientSlotsError(
                f"site {self.name!r} has failed; no slots available"
            )
        if self._used_slots + count > self.total_slots:
            raise InsufficientSlotsError(
                f"site {self.name!r}: requested {count} slots but only "
                f"{self.available_slots} of {self.total_slots} are free"
            )
        self._used_slots += count

    def release(self, count: int = 1) -> None:
        """Return ``count`` slots to the pool."""
        if count < 0:
            raise TopologyError(f"cannot release {count} slots")
        if count > self._used_slots:
            raise TopologyError(
                f"site {self.name!r}: releasing {count} slots but only "
                f"{self._used_slots} are in use"
            )
        self._used_slots -= count

    def fail(self) -> None:
        """Revoke all computational resources (Section 8.6 failure at t=540)."""
        if not self._failed:
            self._failed = True
            self._state_changed()

    def recover(self) -> None:
        """Re-allocate the revoked resources."""
        if self._failed:
            self._failed = False
            self._state_changed()

    def release_all(self) -> None:
        """Free every slot (used when a failed site's tasks are torn down)."""
        self._used_slots = 0

    def force_used_slots(self, count: int) -> None:
        """Set the used-slot counter directly (adaptation rollback only).

        The transactional executor restores the pre-action accounting with
        this; normal allocation must go through :meth:`allocate`.
        """
        if count < 0:
            raise TopologyError(
                f"site {self.name!r}: used slots must be >= 0, got {count}"
            )
        self._used_slots = count

    def revoke_slots(self, count: int) -> int:
        """Withdraw up to ``count`` *free* slots (chaos: resource revocation).

        Shrinking the pool makes placements that needed those slots
        infeasible (the ILP's ``A[s]`` drops), without touching running
        tasks.  Returns how many slots were actually revoked.
        """
        if count < 0:
            raise TopologyError(f"cannot revoke {count} slots")
        revoked = min(count, max(0, self.total_slots - self._used_slots))
        self.total_slots -= revoked
        return revoked

    def restore_slots(self, count: int) -> None:
        """Return previously revoked slots to the pool."""
        if count < 0:
            raise TopologyError(f"cannot restore {count} slots")
        self.total_slots += count
