"""Deterministic, clock-driven chaos injection.

:class:`ChaosInjector` composes :mod:`~repro.chaos.faults` specs with three
schedule shapes plus mid-adaptation trigger points:

* ``at(t_s, fault)`` - fire once at the first tick at/after ``t_s``.
* ``every(period_s, fault)`` - fire periodically, optionally capped.
* ``with_probability(p, fault)`` - Bernoulli per tick inside a window.
* ``at_point(point, fault)`` - fire *inside* an adaptation transaction, at
  :class:`~repro.core.transaction.AdaptationPoint` (a migration in flight,
  or between suspend and resume) - the interleavings ad-hoc testing never
  provokes.

Everything is driven by the simulation clock and a seeded RNG stream, so a
chaos run is reproducible bit-for-bit: same seed + same spec = same faults
at the same ticks = byte-identical adaptation records.  To keep that true,
probabilistic rules draw exactly one uniform per in-window tick whether or
not they fire, so adding an unrelated rule never perturbs another rule's
draws (each rule gets its own child RNG stream).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.transaction import AdaptationPoint
from ..errors import ChaosError
from ..obs.events import ChaosFault, EventBus
from .faults import ChaosTarget, Fault

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.controller import ReconfigurationManager
    from ..sim.recorder import RunRecorder


@dataclass
class _Rule:
    """One (trigger, fault) pair with its firing bookkeeping."""

    fault: Fault
    # Trigger shape: exactly one of the groups below is used.
    at_s: float | None = None
    every_s: float | None = None
    start_s: float = 0.0
    end_s: float = math.inf
    probability: float = 0.0
    point: AdaptationPoint | None = None
    stage: str | None = None
    max_firings: int | None = None
    # Bookkeeping.
    firings: int = 0
    next_fire_s: float | None = None
    rng: np.random.Generator | None = None

    @property
    def exhausted(self) -> bool:
        return self.max_firings is not None and self.firings >= self.max_firings


@dataclass
class _Activation:
    """A fired duration-bound fault awaiting its revert."""

    fault: Fault
    state: Any
    end_s: float | None  # None = permanent, reasserted forever


@dataclass
class ChaosInjector:
    """Schedules faults against an attached experiment.

    Args:
        rng: Seeded stream (e.g. ``rngs.stream("chaos")``); child streams
            are spawned per probabilistic rule so rules stay independent.
        recorder: Optional :class:`~repro.sim.recorder.RunRecorder`; every
            injection and revert lands in its fault timeline.
    """

    rng: np.random.Generator
    recorder: "RunRecorder | None" = None
    #: Event bus (repro.obs) that receives fault firings and reverts as
    #: ``chaos.fault`` events; ``ExperimentRun.attach_chaos`` installs the
    #: run's bus.
    obs: EventBus = field(default_factory=EventBus)
    _rules: list[_Rule] = field(default_factory=list)
    _active: list[_Activation] = field(default_factory=list)
    _target: ChaosTarget | None = None
    _manager: "ReconfigurationManager | None" = None

    # ------------------------------------------------------------------ #
    # Spec building (chainable)
    # ------------------------------------------------------------------ #

    def at(self, t_s: float, fault: Fault) -> "ChaosInjector":
        """Fire ``fault`` once, at the first tick at/after ``t_s``."""
        if t_s < 0:
            raise ChaosError(f"at: t_s must be >= 0, got {t_s}")
        self._rules.append(_Rule(fault=fault, at_s=t_s, max_firings=1))
        return self

    def every(
        self,
        period_s: float,
        fault: Fault,
        *,
        start_s: float = 0.0,
        count: int | None = None,
    ) -> "ChaosInjector":
        """Fire ``fault`` at ``start_s`` and then every ``period_s``."""
        if period_s <= 0:
            raise ChaosError(f"every: period must be > 0, got {period_s}")
        if count is not None and count < 1:
            raise ChaosError(f"every: count must be >= 1, got {count}")
        self._rules.append(
            _Rule(
                fault=fault,
                every_s=period_s,
                start_s=start_s,
                next_fire_s=start_s,
                max_firings=count,
            )
        )
        return self

    def with_probability(
        self,
        probability: float,
        fault: Fault,
        *,
        start_s: float = 0.0,
        end_s: float = math.inf,
        count: int | None = None,
    ) -> "ChaosInjector":
        """Bernoulli(``probability``) trial per tick within the window."""
        if not 0.0 <= probability <= 1.0:
            raise ChaosError(
                f"with_probability: probability must be in [0, 1], "
                f"got {probability}"
            )
        rule = _Rule(
            fault=fault,
            probability=probability,
            start_s=start_s,
            end_s=end_s,
            max_firings=count,
        )
        # A child stream per rule: adding rule N+1 never shifts the draws
        # rule N sees, so specs compose without breaking determinism.
        rule.rng = np.random.default_rng(self.rng.integers(2**63))
        self._rules.append(rule)
        return self

    def at_point(
        self,
        point: AdaptationPoint,
        fault: Fault,
        *,
        stage: str | None = None,
        count: int | None = 1,
    ) -> "ChaosInjector":
        """Fire when the controller reaches ``point`` mid-transaction.

        ``stage`` restricts the trigger to one stage's adaptations; the
        default fires for whichever stage reaches the point first.
        """
        self._rules.append(
            _Rule(fault=fault, point=point, stage=stage, max_firings=count)
        )
        return self

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def attach(
        self,
        target: ChaosTarget,
        *,
        manager: "ReconfigurationManager | None" = None,
    ) -> None:
        """Bind to a running experiment and validate every fault spec.

        Validating up front turns a typo'd site name into a
        :class:`~repro.errors.ChaosError` at wiring time instead of a
        surprise 500 simulated seconds into a run.
        """
        if self._target is not None:
            raise ChaosError(
                "injector already attached; build a new ChaosInjector per run"
            )
        for rule in self._rules:
            rule.fault.validate(target)
            if rule.point is not None and manager is None:
                raise ChaosError(
                    "at_point rules need a ReconfigurationManager to hook"
                )
        self._target = target
        self._manager = manager
        if manager is not None and any(r.point is not None for r in self._rules):
            previous = manager.adaptation_hook

            def hook(point: AdaptationPoint, stage: str, now_s: float) -> None:
                if previous is not None:
                    previous(point, stage, now_s)
                self._on_point(point, stage, now_s)

            manager.adaptation_hook = hook

    # ------------------------------------------------------------------ #
    # Clock driving
    # ------------------------------------------------------------------ #

    def tick(self, now_s: float) -> None:
        """Advance chaos to ``now_s``: revert, reassert, then fire."""
        target = self._require_target()
        # 1. Expired faults revert first so a revert and a re-fire on the
        #    same tick leave the fault applied.
        still_active: list[_Activation] = []
        for activation in self._active:
            if activation.end_s is not None and now_s >= activation.end_s:
                detail = activation.fault.revert(
                    target, now_s, activation.state
                )
                self._record(
                    now_s,
                    f"{activation.fault.kind}:revert",
                    detail,
                    fault=activation.fault.kind,
                    phase="revert",
                )
            else:
                still_active.append(activation)
        self._active = still_active
        # 2. Live continuous faults re-assert their grip (flap phases,
        #    factors a scripted schedule overwrote this tick).
        for activation in self._active:
            activation.fault.reassert(target, now_s, activation.state)
        # 3. Time-based triggers.
        for rule in self._rules:
            if rule.point is not None:
                continue
            if rule.probability > 0.0 or rule.rng is not None:
                if rule.start_s <= now_s < rule.end_s and not rule.exhausted:
                    assert rule.rng is not None
                    draw = rule.rng.uniform()  # exactly one per tick
                    if draw < rule.probability:
                        self._fire(rule, now_s)
                continue
            if rule.exhausted:
                continue
            if rule.at_s is not None and now_s >= rule.at_s:
                self._fire(rule, now_s)
            elif rule.every_s is not None:
                assert rule.next_fire_s is not None
                if now_s >= rule.next_fire_s:
                    self._fire(rule, now_s)
                    rule.next_fire_s = rule.next_fire_s + rule.every_s

    def _on_point(
        self, point: AdaptationPoint, stage: str, now_s: float
    ) -> None:
        for rule in self._rules:
            if rule.point is not point or rule.exhausted:
                continue
            if rule.stage is not None and rule.stage != stage:
                continue
            self._fire(rule, now_s, context=f"at {point.value} of {stage}")

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _require_target(self) -> ChaosTarget:
        if self._target is None:
            raise ChaosError("injector not attached to a target")
        return self._target

    def _fire(self, rule: _Rule, now_s: float, context: str = "") -> None:
        target = self._require_target()
        rule.firings += 1
        detail, state = rule.fault.apply(target, now_s)
        if context:
            detail = f"{detail} [{context}]"
        self._record(now_s, rule.fault.kind, detail)
        if rule.fault.duration_s is not None:
            self._active.append(
                _Activation(
                    fault=rule.fault,
                    state=state,
                    end_s=now_s + rule.fault.duration_s,
                )
            )
        elif type(rule.fault).reassert is not Fault.reassert:
            # Permanent continuous fault: keep re-asserting forever.
            self._active.append(
                _Activation(fault=rule.fault, state=state, end_s=None)
            )

    def _record(
        self,
        t_s: float,
        kind: str,
        detail: str,
        *,
        fault: str | None = None,
        phase: str = "apply",
    ) -> None:
        if self.recorder is not None:
            self.recorder.record_fault(t_s, kind, detail)
        self.obs.emit(
            ChaosFault(t_s, fault=fault or kind, detail=detail, phase=phase)
        )

    @property
    def active_faults(self) -> list[Fault]:
        """Currently-applied duration-bound faults (for assertions)."""
        return [a.fault for a in self._active]
