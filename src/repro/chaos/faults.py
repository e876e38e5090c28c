"""Fault specifications for deterministic chaos injection.

Each fault is a frozen *spec*: what to break, how hard, and for how long.
Applying a fault never stores mutable state on the spec itself - the
injector keeps an activation record per firing - so one spec can fire many
times (periodic or probabilistic schedules) without cross-talk.

The faults cover the wide-area dynamics of the paper plus the failure modes
its prototype hand-waves past:

* :class:`SiteCrash` - Section 8.6's resource revocation (all slots gone).
* :class:`BandwidthCollapse` - Section 8.4's bandwidth drop, per link.
* :class:`LinkFlap` - a link that oscillates between collapsed and nominal.
* :class:`Straggler` - the Section-1 slow-site dynamic.
* :class:`CheckpointLoss` - a site loses its local checkpoint snapshots,
  so recovery must replay from t=0 of the stage (Section 5's worst case).
* :class:`SlotRevocation` - free slots withdrawn, making placements the
  ILP would otherwise pick infeasible.

All faults mutate the *environment* (topology, checkpoints) only.  The
deployment-side consequences - rollbacks, fallbacks, re-assigns - are the
controller's job; that separation is what the transactional executor's
"never roll back the world" rule relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from ..errors import ChaosError, TopologyError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.checkpoint import CheckpointCoordinator
    from ..network.topology import Topology


@dataclass
class ChaosTarget:
    """The slice of a running experiment a fault is allowed to touch.

    ``fail_site`` / ``recover_site`` default to raw topology mutation; the
    experiment harness overrides them with callbacks that also track the
    failure window and inject checkpoint-replay on recovery.  Every crash of
    a run, scripted in its ``DynamicsSpec`` or not, goes through them.
    """

    topology: "Topology"
    checkpoints: "CheckpointCoordinator | None" = None
    fail_site: Callable[[str, float], None] | None = None
    recover_site: Callable[[str, float], None] | None = None

    def do_fail_site(self, name: str, now_s: float) -> None:
        if self.fail_site is not None:
            self.fail_site(name, now_s)
        else:
            self.topology.site(name).fail()

    def do_recover_site(self, name: str, now_s: float) -> None:
        if self.recover_site is not None:
            self.recover_site(name, now_s)
        else:
            self.topology.site(name).recover()


class Fault:
    """Base class: validate against a target, apply, optionally revert.

    ``apply`` returns ``(detail, state)``; ``state`` is whatever the revert
    needs (e.g. how many slots were actually revoked) and is stored on the
    injector's activation record, not the spec.  ``reassert`` is called on
    every tick while the activation is live, letting continuous faults win
    over factor schedules that touch the same knob.
    """

    kind: str = "fault"
    duration_s: float | None = None

    def validate(self, target: ChaosTarget) -> None:
        raise NotImplementedError

    def apply(self, target: ChaosTarget, now_s: float) -> tuple[str, Any]:
        raise NotImplementedError

    def reassert(self, target: ChaosTarget, now_s: float, state: Any) -> None:
        return None

    def revert(self, target: ChaosTarget, now_s: float, state: Any) -> str:
        return ""

    def _require_site(self, target: ChaosTarget, name: str) -> None:
        if name not in target.topology:
            raise ChaosError(f"{self.kind}: unknown site {name!r}")

    def _require_link(self, target: ChaosTarget, src: str, dst: str) -> None:
        self._require_site(target, src)
        self._require_site(target, dst)
        try:
            target.topology.bandwidth_mbps(src, dst)
        except TopologyError as exc:
            raise ChaosError(f"{self.kind}: {exc}") from exc


@dataclass(frozen=True)
class SiteCrash(Fault):
    """Revoke every resource of ``site``; recover after ``duration_s``.

    ``site = None`` is a whole-testbed outage (Section 8.6): every live site
    crashes, and the revert recovers exactly those, in topology order.
    ``duration_s = None`` crashes permanently (no recovery, no replay).
    """

    site: str | None
    duration_s: float | None = None
    kind = "site-crash"

    def validate(self, target: ChaosTarget) -> None:
        if self.site is not None:
            self._require_site(target, self.site)
        if self.duration_s is not None and self.duration_s <= 0:
            raise ChaosError(f"{self.kind}: duration must be > 0")

    def apply(self, target: ChaosTarget, now_s: float) -> tuple[str, Any]:
        topology = target.topology
        names = topology.site_names if self.site is None else [self.site]
        crashed = tuple(n for n in names if not topology.site(n).failed)
        for name in crashed:
            target.do_fail_site(name, now_s)
        if crashed:
            return f"{', '.join(crashed)} crashed", crashed
        return f"{self.site or 'every site'} already failed", crashed

    def revert(self, target: ChaosTarget, now_s: float, state: Any) -> str:
        for name in state:
            target.do_recover_site(name, now_s)
        return f"{', '.join(state)} recovered" if state else ""


@dataclass(frozen=True)
class BandwidthCollapse(Fault):
    """Scale one directed link to ``factor`` of its base capacity.

    ``factor = 0`` models a severed link; the migration planner then
    refuses to route state over it (``MigrationError``), which is the
    trigger for the controller's retry/fallback chain.
    """

    src: str
    dst: str
    factor: float = 0.0
    duration_s: float | None = None
    kind = "bandwidth-collapse"

    def validate(self, target: ChaosTarget) -> None:
        self._require_link(target, self.src, self.dst)
        if self.factor < 0:
            raise ChaosError(f"{self.kind}: factor must be >= 0")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ChaosError(f"{self.kind}: duration must be > 0")

    def apply(self, target: ChaosTarget, now_s: float) -> tuple[str, Any]:
        target.topology.set_bandwidth_factor(self.src, self.dst, self.factor)
        return f"{self.src}->{self.dst} x{self.factor}", None

    def reassert(self, target: ChaosTarget, now_s: float, state: Any) -> None:
        # Re-apply every tick so a scripted bandwidth schedule touching the
        # same link cannot silently un-collapse it mid-fault.
        target.topology.set_bandwidth_factor(self.src, self.dst, self.factor)

    def revert(self, target: ChaosTarget, now_s: float, state: Any) -> str:
        target.topology.set_bandwidth_factor(self.src, self.dst, 1.0)
        return f"{self.src}->{self.dst} restored"


@dataclass(frozen=True)
class LinkFlap(Fault):
    """Oscillate a link between ``factor`` and nominal capacity.

    The link spends ``down_s`` collapsed then ``up_s`` nominal, repeating
    for ``duration_s``.  Flapping is the adversarial version of a collapse:
    measurements taken during an up-phase promise bandwidth the next
    down-phase takes away, exercising the staleness the alpha headroom and
    the retry-with-re-measurement path exist for.
    """

    src: str
    dst: str
    factor: float = 0.0
    down_s: float = 10.0
    up_s: float = 10.0
    duration_s: float | None = 60.0
    kind = "link-flap"

    def validate(self, target: ChaosTarget) -> None:
        self._require_link(target, self.src, self.dst)
        if self.factor < 0:
            raise ChaosError(f"{self.kind}: factor must be >= 0")
        if self.down_s <= 0 or self.up_s <= 0:
            raise ChaosError(f"{self.kind}: phase lengths must be > 0")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ChaosError(f"{self.kind}: duration must be > 0")

    def _phase_factor(self, elapsed_s: float) -> float:
        period = self.down_s + self.up_s
        return self.factor if (elapsed_s % period) < self.down_s else 1.0

    def apply(self, target: ChaosTarget, now_s: float) -> tuple[str, Any]:
        target.topology.set_bandwidth_factor(self.src, self.dst, self.factor)
        return (
            f"{self.src}->{self.dst} flapping x{self.factor} "
            f"({self.down_s}s down / {self.up_s}s up)",
            now_s,  # activation time anchors the phase
        )

    def reassert(self, target: ChaosTarget, now_s: float, state: Any) -> None:
        target.topology.set_bandwidth_factor(
            self.src, self.dst, self._phase_factor(now_s - float(state))
        )

    def revert(self, target: ChaosTarget, now_s: float, state: Any) -> str:
        target.topology.set_bandwidth_factor(self.src, self.dst, 1.0)
        return f"{self.src}->{self.dst} stopped flapping"


@dataclass(frozen=True)
class Straggler(Fault):
    """Slow every slot of ``site`` down by ``slowdown`` (>= 1)."""

    site: str
    slowdown: float = 4.0
    duration_s: float | None = None
    kind = "straggler"

    def validate(self, target: ChaosTarget) -> None:
        self._require_site(target, self.site)
        if self.slowdown < 1.0:
            raise ChaosError(f"{self.kind}: slowdown must be >= 1")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ChaosError(f"{self.kind}: duration must be > 0")

    def apply(self, target: ChaosTarget, now_s: float) -> tuple[str, Any]:
        target.topology.site(self.site).set_slowdown(self.slowdown)
        return f"{self.site} straggling x{self.slowdown}", None

    def reassert(self, target: ChaosTarget, now_s: float, state: Any) -> None:
        target.topology.site(self.site).set_slowdown(self.slowdown)

    def revert(self, target: ChaosTarget, now_s: float, state: Any) -> str:
        target.topology.site(self.site).set_slowdown(1.0)
        return f"{self.site} back to nominal speed"


@dataclass(frozen=True)
class CheckpointLoss(Fault):
    """Drop every local checkpoint stored at ``site`` (one-shot).

    After this, a crash of the same site forces replay from the stage's
    beginning - Section 5's motivation for *localized* checkpointing turned
    into a testable worst case.
    """

    site: str
    kind = "checkpoint-loss"

    def validate(self, target: ChaosTarget) -> None:
        self._require_site(target, self.site)
        if target.checkpoints is None:
            raise ChaosError(
                f"{self.kind}: target has no checkpoint coordinator"
            )

    def apply(self, target: ChaosTarget, now_s: float) -> tuple[str, Any]:
        assert target.checkpoints is not None
        lost = target.checkpoints.forget_all_at_site(self.site)
        detail = (
            f"{self.site} lost checkpoints for {', '.join(lost)}"
            if lost
            else f"{self.site} had no checkpoints to lose"
        )
        return detail, None


@dataclass(frozen=True)
class SlotRevocation(Fault):
    """Withdraw up to ``count`` free slots from ``site``.

    Shrinks the ILP's ``A[s]`` without touching running tasks: placements
    that needed the head-room become infeasible, which is how chaos
    provokes ``InfeasiblePlacementError`` inside an adaptation round.
    """

    site: str
    count: int = 1
    duration_s: float | None = None
    kind = "slot-revocation"

    def validate(self, target: ChaosTarget) -> None:
        self._require_site(target, self.site)
        if self.count < 1:
            raise ChaosError(f"{self.kind}: count must be >= 1")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ChaosError(f"{self.kind}: duration must be > 0")

    def apply(self, target: ChaosTarget, now_s: float) -> tuple[str, Any]:
        revoked = target.topology.site(self.site).revoke_slots(self.count)
        return f"{self.site} lost {revoked} slot(s)", revoked

    def revert(self, target: ChaosTarget, now_s: float, state: Any) -> str:
        revoked = int(state or 0)
        if revoked:
            target.topology.site(self.site).restore_slots(revoked)
        return f"{self.site} regained {revoked} slot(s)"
