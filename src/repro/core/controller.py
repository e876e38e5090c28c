"""The Reconfiguration Manager (Sections 3.1 and 6).

This is the component the Global Metric Monitor asks to resolve unhealthy
executions.  Once per monitoring interval it:

1. refreshes the WAN monitor's pairwise bandwidth measurements,
2. collects the interval's metrics window,
3. estimates the actual (unthrottled) workload per stage (Section 3.3),
4. diagnoses every stage (Section 3.2),
5. asks the policy for adaptation actions (Section 6.2, Figure 6), and
6. executes them: slot re-allocation via the scheduler, state movement via
   the migration planner + state store, and execution suspension via the
   engine's mutation API (the transition phase of Section 8.7).

The controller also hosts the baselines' restricted behaviours: the policy
mode limits *which* techniques may fire (Section 8.5) and the migration
strategy selects WASP / Random / Distant / None state movement
(Section 8.7.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..config import WaspConfig
from ..engine.checkpoint import CheckpointCoordinator
from ..engine.metrics import GlobalMetricMonitor, MetricsWindow
from ..engine.physical import PhysicalPlan, Stage
from ..engine.runtime import EngineRuntime, TickReport
from ..engine.state import StateStore
from ..errors import AdaptationError, AdaptationRollbackError, WaspError
from ..network.monitor import WanMonitor
from ..network.relay import relayed_bandwidth_lookup
from ..obs.events import (
    Abandoned,
    Apply,
    AttemptStart,
    Commit,
    Diagnose,
    EventBus,
    FallbackHop,
    ObsEvent,
    Rollback,
    RoundEnd,
    RoundStart,
    Snapshot,
    Validate,
    Verify,
    WindowSnapshot,
)
from ..planner.scheduler import AssignmentDiff, Scheduler
from ..sim.recorder import RunRecorder
from .actions import (
    Action,
    ActionKind,
    ReassignAction,
    ReplanAction,
    ScaleAction,
    ScaleDownAction,
)
from .diagnosis import Diagnoser, StageDiagnosis
from .estimator import WorkloadEstimator
from .migration import (
    MigrationPlan,
    MigrationStrategy,
    emit_migration_events,
    plan_migration,
    rebalance_transfers,
)
from .policy import AdaptationPolicy, PolicyContext, PolicyMode
from .replanning import Replanner
from .transaction import (
    AdaptationPoint,
    AdaptationTransaction,
    AttemptRecord,
)

#: Hook signature chaos injection registers on the controller: called at
#: each :class:`AdaptationPoint` with the acted-on stage and the sim time.
AdaptationHook = Callable[[AdaptationPoint, str, float], None]


@dataclass
class AdaptationRecord:
    """One committed action; the committed :class:`AttemptRecord` of the
    manager's ``attempt_log`` carries it."""

    t_s: float
    kind: ActionKind
    stage: str
    reason: str
    transition_s: float
    migration: MigrationPlan | None = None
    #: Which technique of the Figure-6 fallback chain finally committed:
    #: "primary", "retry-<k>", "scale-out" or "abandon-state".
    attempt: str = "primary"
    #: Committed by the long-term planner's background loop rather than a
    #: reactive round (recorded as "re-plan (long-term)").
    long_term: bool = False


@dataclass(frozen=True)
class _Attempt:
    """One candidate technique in the transactional fallback chain."""

    label: str
    action: Action
    strategy: MigrationStrategy | None  # None inherits the manager's strategy
    backoff_s: float = 0.0


class _NetworkAdapter:
    """Bridges the diagnoser/policy protocols to monitor + topology."""

    def __init__(self, manager: "ReconfigurationManager") -> None:
        self._m = manager

    def bandwidth_mbps(self, src: str, dst: str) -> float:
        return self._m.wan_monitor.bandwidth_mbps(src, dst)

    def latency_ms(self, src: str, dst: str) -> float:
        return self._m.wan_monitor.latency_ms(src, dst)

    def site_proc_rate_eps(self, site: str) -> float:
        site_obj = self._m.runtime.topology.site(site)
        if site_obj.failed:
            return 0.0
        return site_obj.effective_proc_rate_eps

    def plan_for(self, stage_name: str) -> PhysicalPlan | None:
        plan = self._m.runtime.plan
        return plan if stage_name in plan.stages else None


class ReconfigurationManager:
    """Monitors, diagnoses and adapts one running query."""

    def __init__(
        self,
        runtime: EngineRuntime,
        scheduler: Scheduler,
        wan_monitor: WanMonitor,
        state_store: StateStore,
        checkpoints: CheckpointCoordinator,
        *,
        replanner: Replanner | None = None,
        config: WaspConfig | None = None,
        recorder: RunRecorder | None = None,
        mode: PolicyMode | None = None,
        migration_strategy: MigrationStrategy = MigrationStrategy.WASP,
        rng: np.random.Generator | None = None,
        obs: EventBus | None = None,
    ) -> None:
        self.runtime = runtime
        self.scheduler = scheduler
        self.wan_monitor = wan_monitor
        self.state_store = state_store
        self.checkpoints = checkpoints
        self.replanner = replanner
        self.config = config or WaspConfig.paper_defaults()
        self.recorder = recorder
        self.mode = mode or PolicyMode.wasp()
        self.migration_strategy = migration_strategy
        self._rng = rng if rng is not None else np.random.default_rng(0)
        #: The event bus (repro.obs); ``emit`` returns at once while no sink
        #: is attached.
        self.obs = obs if obs is not None else EventBus()
        self._round_no = 0

        self.monitor = GlobalMetricMonitor()
        self.estimator = WorkloadEstimator()
        self.diagnoser = Diagnoser(self.config)
        self.policy = AdaptationPolicy(self.estimator, obs=self.obs)
        self.network = _NetworkAdapter(self)

        #: The adaptation log: every attempt's outcome, in order.  Only
        #: :meth:`_log` appends to it; ``history`` is a view over it.
        self.attempt_log: list[AttemptRecord] = []
        self.state_lost_mb = 0.0
        self.last_window: MetricsWindow | None = None
        self.last_diagnoses: dict[str, StageDiagnosis] = {}

        #: Chaos hook fired at each AdaptationPoint (see transaction.py);
        #: None outside chaos experiments.
        self.adaptation_hook: AdaptationHook | None = None
        # Per-attempt overrides installed by the transactional executor.
        self._strategy_override: MigrationStrategy | None = None
        self._extra_transition_s = 0.0

        # Bulk state transfers may route through a relay site when the
        # config enables it; live stream placement always uses direct links.
        if self.config.migration_relays:
            self.migration_bandwidth = relayed_bandwidth_lookup(
                self.runtime.topology.site_names,
                self.wan_monitor.bandwidth_mbps,
            )
        else:
            self.migration_bandwidth = self.wan_monitor.bandwidth_mbps

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #

    def observe_tick(self, report: TickReport) -> None:
        self.monitor.observe(report)

    # ------------------------------------------------------------------ #
    # The adaptation loop body
    # ------------------------------------------------------------------ #

    @property
    def history(self) -> tuple[AdaptationRecord, ...]:
        """The committed adaptations, in order (a view over ``attempt_log``)."""
        return tuple(a.record for a in self.attempt_log if a.record is not None)

    def adaptation_round(self, now_s: float) -> list[AdaptationRecord]:
        """One monitoring-interval iteration; returns the actions executed."""
        obs = self.obs
        self._round_no += 1
        with obs.span("adaptation-round", now_s):
            obs.emit(
                RoundStart(
                    now_s,
                    round=self._round_no,
                    stages=len(self.runtime.plan.stages),
                )
            )
            executed, decided = self._round_body(now_s)
            obs.emit(
                RoundEnd(
                    now_s,
                    round=self._round_no,
                    decided=decided,
                    executed=len(executed),
                )
            )
        return executed

    def _round_body(
        self, now_s: float
    ) -> tuple[list[AdaptationRecord], int]:
        """The round itself; returns (executed records, decided count)."""
        obs = self.obs
        self.wan_monitor.refresh(now_s)
        window = self.monitor.collect(self.runtime.sink_source_equiv)
        self.last_window = window
        plan = self.runtime.plan
        estimates = self.estimator.estimate(plan, window)
        diagnoses = self.diagnoser.diagnose(
            plan, window, estimates, self.network
        )
        self.last_diagnoses = diagnoses
        self._emit_window(now_s, window, estimates)
        for name in sorted(diagnoses):
            diag = diagnoses[name]
            obs.emit(
                Diagnose(
                    now_s,
                    stage=name,
                    health=diag.health.value,
                    utilization=diag.utilization,
                    expected_input_eps=diag.expected_input_eps,
                    capacity_eps=diag.processing_capacity_eps,
                    backlog=diag.input_backlog,
                    backlog_growth=diag.input_backlog_growth,
                    slow_sites=list(diag.slow_sites),
                )
            )

        # Skip stages still transitioning from the previous adaptation.
        actionable = {
            name: diag
            for name, diag in diagnoses.items()
            if not self.runtime.is_suspended(name)
        }

        ctx = PolicyContext(
            plan=plan,
            diagnoses=actionable,
            estimates=estimates,
            network=self.network,
            available_slots=self.runtime.topology.available_slots(),
            state_mb_at=self.state_store.mb_at_site,
            source_generation_eps=dict(window.source_generation_eps),
            config=self.config,
            replanner=self.replanner,
            mode=self.mode,
            migration_bandwidth=self.migration_bandwidth,
            now_s=now_s,
        )
        actions = self.policy.decide(ctx)
        decided = len(actions)
        # Re-planning replaces the entire execution (high overhead, Table
        # 2); a cooldown prevents thrashing between near-equal plans.
        last_replan = max(
            (r.t_s for r in self.history if r.kind is ActionKind.REPLAN),
            default=float("-inf"),
        )
        actions = [
            a
            for a in actions
            if not (
                isinstance(a, ReplanAction)
                and now_s - last_replan < self.config.replan_cooldown_s
            )
        ]
        executed: list[AdaptationRecord] = []
        for action in actions:
            record = self.execute(action, now_s)
            if record is not None:
                executed.append(record)
        return executed, decided

    def _emit_window(
        self,
        now_s: float,
        window: MetricsWindow,
        estimates: dict,
    ) -> None:
        """One ``window`` event: per-stage rates/backlog + per-link flows."""
        stages: dict[str, dict] = {}
        links: dict[str, dict] = {}
        for name in sorted(window.stages):
            metrics = window.stages[name]
            estimate = estimates.get(name)
            stages[name] = {
                "lambda_p": metrics.lambda_p,
                "lambda_hat": estimate.input_eps if estimate else 0.0,
                "utilization": metrics.utilization,
                "backlog": metrics.input_backlog,
                "backlog_growth": metrics.input_backlog_growth,
            }
            for (src, dst), eps in metrics.net_inflow.items():
                link = links.setdefault(
                    f"{src}->{dst}", {"inflow_eps": 0.0, "backlog": 0.0}
                )
                link["inflow_eps"] += eps
            for (src, dst), backlog in metrics.net_backlog.items():
                link = links.setdefault(
                    f"{src}->{dst}", {"inflow_eps": 0.0, "backlog": 0.0}
                )
                link["backlog"] += backlog
        self.obs.emit(
            WindowSnapshot(
                now_s,
                t_start_s=window.t_start_s,
                t_end_s=window.t_end_s,
                offered_eps=window.offered_eps,
                mean_delay_s=window.mean_delay_s,
                stages=stages,
                links=dict(sorted(links.items())),
            )
        )

    # ------------------------------------------------------------------ #
    # Action execution
    # ------------------------------------------------------------------ #

    def execute(
        self, action: Action, now_s: float, *, long_term: bool = False
    ) -> AdaptationRecord | None:
        """Run one action transactionally with technique fallback.

        Lifecycle per attempt: validate -> snapshot -> apply -> verify ->
        commit.  Any :class:`~repro.errors.WaspError` raised during the
        attempt (a planner refusing a dead link, a chaos fault striking at
        an :class:`AdaptationPoint`, verification finding the result
        inconsistent) rolls the snapshot back and falls through the
        Figure-6 technique chain: retry against re-measured bandwidth with
        bounded simulated-time backoff, then scale-out with state
        partitioning, then abandon the state (Section 8.7.1's NONE).
        Returns None when every technique rolled back - the system is then
        bit-identical to before the action.  ``long_term`` marks a
        proactive re-plan of the long-term planner.
        """
        if not isinstance(
            action, (ReassignAction, ScaleAction, ScaleDownAction, ReplanAction)
        ):
            raise AdaptationError(f"unknown action type: {action!r}")
        obs = self.obs
        stage = action.stage
        prev_label: str | None = None
        for attempt in self._attempt_chain(action, now_s):
            label = attempt.label
            kind = attempt.action.kind.value
            if prev_label is not None:
                obs.emit(
                    FallbackHop(
                        now_s,
                        stage=stage,
                        from_attempt=prev_label,
                        to_attempt=label,
                    )
                )
            obs.emit(
                AttemptStart(
                    now_s,
                    stage=stage,
                    attempt=label,
                    action=kind,
                    reason=attempt.action.reason,
                )
            )
            prev_label = label
            obs.emit(Snapshot(now_s, stage=stage))
            txn = AdaptationTransaction.begin(self)
            self._strategy_override = attempt.strategy
            self._extra_transition_s = attempt.backoff_s
            try:
                self._validate(attempt.action)
                obs.emit(Validate(now_s, stage=stage, action=kind))
                record = self._apply_action(attempt.action, now_s)
                obs.emit(
                    Apply(
                        now_s,
                        stage=stage,
                        action=kind,
                        transition_s=record.transition_s,
                    )
                )
                self._verify(record)
                obs.emit(Verify(now_s, stage=stage))
                if record.migration is not None:
                    emit_migration_events(
                        obs,
                        now_s,
                        record.stage,
                        record.migration,
                        self._current_strategy(),
                    )
            except WaspError as exc:
                txn.rollback(self)
                self._log(
                    Rollback(now_s, stage=stage, attempt=label, error=str(exc)),
                    AttemptRecord(now_s, stage, label, "rolled-back", str(exc)),
                )
                continue
            finally:
                self._strategy_override = None
                self._extra_transition_s = 0.0
            record.attempt = label
            record.long_term = long_term
            self._log(
                Commit(
                    now_s,
                    stage=stage,
                    attempt=label,
                    action=record.kind.value,
                    reason=record.reason,
                    transition_s=record.transition_s,
                ),
                AttemptRecord(
                    now_s, stage, label, "committed", attempt.action.reason,
                    record,
                ),
            )
            return record
        self._log(
            Abandoned(now_s, stage=stage, action=action.kind.value),
            AttemptRecord(
                now_s, stage, "exhausted", "abandoned",
                "every technique in the fallback chain rolled back",
            ),
        )
        return None

    def _apply_action(self, action: Action, now_s: float) -> AdaptationRecord:
        if isinstance(action, ReassignAction):
            return self._execute_reassign(action, now_s)
        if isinstance(action, ScaleAction):
            return self._execute_scale(action, now_s)
        if isinstance(action, ScaleDownAction):
            return self._execute_scale_down(action, now_s)
        assert isinstance(action, ReplanAction)
        return self._execute_replan(action, now_s)

    def _stage(self, name: str) -> Stage:
        return self.runtime.plan.stage(name)

    # ------------------------------------------------------------------ #
    # Transaction lifecycle: validate / verify / fallback chain
    # ------------------------------------------------------------------ #

    def _current_strategy(self) -> MigrationStrategy:
        return self._strategy_override or self.migration_strategy

    def _notify_point(
        self, point: AdaptationPoint, stage: str, now_s: float
    ) -> None:
        if self.adaptation_hook is not None:
            self.adaptation_hook(point, stage, now_s)

    def _log(self, event: ObsEvent, entry: AttemptRecord) -> None:
        """The one writer of the adaptation record: emit the outcome's bus
        event, append ``entry`` to ``attempt_log`` and write its recorder
        lines (``rollback``; ``fallback:<label>`` or
        ``adaptation-abandoned``; the committed kind)."""
        self.obs.emit(event)
        self.attempt_log.append(entry)
        recorder = self.recorder
        if recorder is None:
            return
        t_s, stage, attempt = entry.t_s, entry.stage, entry.attempt
        if entry.outcome == "rolled-back":
            recorder.record_adaptation(
                t_s, "rollback", f"{stage}: {attempt}: {entry.detail}"
            )
        elif entry.outcome == "abandoned":
            recorder.record_adaptation(
                t_s, "adaptation-abandoned", f"{stage}: {entry.detail}"
            )
        else:
            record = entry.record
            if attempt != "primary":
                recorder.record_adaptation(
                    t_s, f"fallback:{attempt}", f"{stage}: {entry.detail}"
                )
            recorder.record_adaptation(
                t_s,
                "re-plan (long-term)" if record.long_term else record.kind.value,
                record.reason,
            )

    def _validate(self, action: Action) -> None:
        """Reject actions that are wrong before touching anything."""
        if isinstance(action, ReplanAction):
            return  # the replanner validated feasibility when proposing it
        plan = self.runtime.plan
        if action.stage not in plan.stages:
            raise AdaptationError(f"unknown stage {action.stage!r}")
        topology = self.runtime.topology
        if isinstance(action, (ReassignAction, ScaleAction)):
            if not action.new_assignment:
                raise AdaptationError(
                    f"stage {action.stage!r}: empty assignment"
                )
            for site, count in sorted(action.new_assignment.items()):
                if count <= 0:
                    raise AdaptationError(
                        f"stage {action.stage!r}: non-positive task count "
                        f"{count} at {site!r}"
                    )
                if topology.site(site).failed:
                    raise AdaptationError(
                        f"stage {action.stage!r}: assignment targets failed "
                        f"site {site!r}"
                    )
        elif isinstance(action, ScaleDownAction):
            if plan.stage(action.stage).placement().get(action.site, 0) < 1:
                raise AdaptationError(
                    f"stage {action.stage!r} has no task at {action.site!r}"
                )

    def _verify(self, record: AdaptationRecord) -> None:
        """Post-apply consistency check; raising here triggers rollback.

        A fault injected at an adaptation point surfaces exactly here: the
        apply path succeeded against the pre-fault world, and verification
        compares the result against the post-fault one.
        """
        plan = self.runtime.plan
        topology = self.runtime.topology
        failed = {s.name for s in topology if s.failed}
        names = (
            list(plan.stages)
            if record.kind is ActionKind.REPLAN
            else [record.stage]
        )
        for name in names:
            stage = plan.stages.get(name)
            if stage is None:
                continue
            if stage.is_source:
                continue  # sources are pinned; recovery handles their sites
            placement = stage.placement()
            on_failed = sorted(set(placement) & failed)
            if on_failed:
                raise AdaptationRollbackError(
                    f"stage {name!r} placed on failed site(s) {on_failed}"
                )
            if stage.stateful:
                stranded = sorted(
                    set(self.state_store.sites(name)) - set(placement)
                )
                if stranded:
                    raise AdaptationRollbackError(
                        f"stage {name!r}: state partitions stranded at "
                        f"{stranded}"
                    )
        if record.migration is not None and not math.isfinite(
            record.migration.transition_s
        ):
            raise AdaptationRollbackError(
                f"stage {record.stage!r}: non-finite migration transition"
            )
        # Slot accounting: every task of the live plan must be backed by an
        # allocated slot, and no site may exceed its capacity.
        tasks_at: dict[str, int] = {}
        for stage in plan.topological_stages():
            for site, count in stage.placement().items():
                tasks_at[site] = tasks_at.get(site, 0) + count
        for site_name in sorted(tasks_at):
            site = topology.site(site_name)
            if not site.failed and site.used_slots < tasks_at[site_name]:
                raise AdaptationRollbackError(
                    f"slot accounting underflow at {site_name!r}: "
                    f"{tasks_at[site_name]} tasks but only "
                    f"{site.used_slots} slots in use"
                )

    def _attempt_chain(self, action: Action, now_s: float):
        """Lazily yield the Figure-6 fallback chain for ``action``.

        Built lazily so each fallback is derived from the world as it is
        *after* the previous rollback (failed sites stripped, bandwidth
        re-measured).  Scale-down is an optimization and a re-plan is
        re-decided from scratch next round, so both get a single attempt.
        """
        yield _Attempt("primary", action, None)
        if not isinstance(action, (ReassignAction, ScaleAction)):
            return
        backoff = self.config.adaptation_retry_backoff_s
        for k in range(1, self.config.adaptation_max_retries + 1):
            retry = self._remeasured_action(action, now_s)
            if retry is None:
                break
            yield _Attempt(f"retry-{k}", retry, None, backoff_s=backoff * k)
        scale_out = self._scale_out_fallback(action)
        if scale_out is not None:
            yield _Attempt("scale-out", scale_out, None)
        abandon = self._abandon_state_fallback(action)
        if abandon is not None:
            yield _Attempt("abandon-state", abandon, MigrationStrategy.NONE)

    def _viable_assignment(
        self, stage: Stage, assignment: dict[str, int]
    ) -> dict[str, int] | None:
        """Strip failed sites from ``assignment``, re-homing displaced tasks.

        Displaced counts move to live sites by descending slot headroom
        (ties broken by name, so the result is deterministic).  Returns
        None when nothing survives.
        """
        failed = {s.name for s in self.runtime.topology if s.failed}
        surviving = {
            site: count
            for site, count in assignment.items()
            if site not in failed
        }
        displaced = sum(
            count for site, count in assignment.items() if site in failed
        )
        if displaced:
            current = stage.placement()
            available = self.runtime.topology.available_slots()

            def headroom(site: str) -> int:
                # Slots a retry could occupy: currently free, plus those the
                # stage itself holds there, minus what this assignment asks.
                return (
                    available.get(site, 0)
                    + current.get(site, 0)
                    - surviving.get(site, 0)
                )

            candidates = sorted(set(available) - failed)
            for _ in range(displaced):
                best = None
                for site in candidates:
                    if headroom(site) <= 0:
                        continue
                    if best is None or headroom(site) > headroom(best):
                        best = site
                if best is None:
                    break  # not enough live capacity; shrink the stage
                surviving[best] = surviving.get(best, 0) + 1
        return surviving or None

    def _remeasured_action(
        self, action: ReassignAction | ScaleAction, now_s: float
    ) -> Action | None:
        stage = self.runtime.plan.stages.get(action.stage)
        if stage is None:
            return None
        assignment = self._viable_assignment(stage, action.new_assignment)
        if assignment is None:
            return None
        # Fresh single-link measurements for every candidate transfer path,
        # so the retry plans against the post-fault bandwidth.
        for src in sorted(stage.placement()):
            for dst in sorted(assignment):
                if src != dst:
                    self.wan_monitor.remeasure(src, dst, now_s)
        reason = f"{action.reason} [retry: re-measured bandwidth]"
        if isinstance(action, ScaleAction):
            return ScaleAction(
                stage=action.stage,
                reason=reason,
                target_parallelism=sum(assignment.values()),
                new_assignment=assignment,
                cross_site=any(
                    site not in stage.placement() for site in assignment
                ),
            )
        return ReassignAction(
            stage=action.stage, reason=reason, new_assignment=assignment
        )

    def _scale_out_fallback(
        self, action: ReassignAction | ScaleAction
    ) -> ScaleAction | None:
        """Scale out one task further so state partitioning shrinks each
        transfer slice (Section 8.7.2's mitigation for heavy migrations)."""
        stage = self.runtime.plan.stages.get(action.stage)
        if stage is None or not stage.splittable:
            return None
        base = self._viable_assignment(stage, action.new_assignment)
        if base is None:
            return None
        failed = {s.name for s in self.runtime.topology if s.failed}
        current = stage.placement()
        available = self.runtime.topology.available_slots()
        extra_site = None
        for site in sorted(set(available) - failed):
            room = (
                available.get(site, 0)
                + current.get(site, 0)
                - base.get(site, 0)
            )
            if room <= 0:
                continue
            if extra_site is None:
                extra_site = site
        if extra_site is None:
            return None
        target = dict(base)
        target[extra_site] = target.get(extra_site, 0) + 1
        return ScaleAction(
            stage=action.stage,
            reason=(
                f"{action.reason} [fallback: scale-out partitions state]"
            ),
            target_parallelism=sum(target.values()),
            new_assignment=target,
            cross_site=any(site not in current for site in target),
        )

    def _abandon_state_fallback(
        self, action: ReassignAction | ScaleAction
    ) -> ReassignAction | None:
        """Last resort: move the execution and restart state empty
        (Section 8.7.1's NONE - loses accuracy, never availability)."""
        stage = self.runtime.plan.stages.get(action.stage)
        if stage is None:
            return None
        assignment = self._viable_assignment(stage, action.new_assignment)
        if assignment is None:
            return None
        return ReassignAction(
            stage=action.stage,
            reason=f"{action.reason} [fallback: abandon state]",
            new_assignment=assignment,
        )

    def _execute_reassign(
        self, action: ReassignAction, now_s: float
    ) -> AdaptationRecord:
        stage = self._stage(action.stage)
        moved_out = {
            site: self.state_store.mb_at_site(stage.name, site)
            for site, count in stage.placement().items()
            if action.new_assignment.get(site, 0) < count
        }
        diff = self.scheduler.apply_assignment(stage, action.new_assignment)
        migration = self._migrate_for_diff(stage, moved_out, diff)
        if migration.transfers:
            self._notify_point(
                AdaptationPoint.MIGRATION_IN_FLIGHT, stage.name, now_s
            )
        transition = (
            self.config.reconfig_base_overhead_s
            + migration.transition_s
            + self._extra_transition_s
        )
        self.runtime.suspend_stage(stage.name, now_s + transition)
        self._notify_point(
            AdaptationPoint.BETWEEN_SUSPEND_RESUME, stage.name, now_s
        )
        self._apply_migration_side_effects(stage, migration)
        self._rehome_orphans(stage, diff)
        return AdaptationRecord(
            t_s=now_s,
            kind=ActionKind.REASSIGN,
            stage=stage.name,
            reason=action.reason,
            transition_s=transition,
            migration=migration,
        )

    def _execute_scale(
        self, action: ScaleAction, now_s: float
    ) -> AdaptationRecord:
        stage = self._stage(action.stage)
        before_state = {
            site: self.state_store.mb_at_site(stage.name, site)
            for site in stage.placement()
        }
        diff = self.scheduler.apply_assignment(stage, action.new_assignment)
        migration: MigrationPlan | None = None
        transition = (
            self.config.reconfig_base_overhead_s + self._extra_transition_s
        )
        if stage.stateful and self.state_store.total_mb(stage.name) > 0:
            migration = self._rebalance_state(stage, before_state)
            if migration.transfers:
                self._notify_point(
                    AdaptationPoint.MIGRATION_IN_FLIGHT, stage.name, now_s
                )
            transition += migration.transition_s
        elif stage.stateful:
            task_sites = [t.site for t in stage.tasks]
            self.state_store.rebalance(stage.name, task_sites)
        self._rehome_orphans(stage, diff)
        self.runtime.suspend_stage(stage.name, now_s + transition)
        self._notify_point(
            AdaptationPoint.BETWEEN_SUSPEND_RESUME, stage.name, now_s
        )
        return AdaptationRecord(
            t_s=now_s,
            kind=action.kind,
            stage=stage.name,
            reason=action.reason,
            transition_s=transition,
            migration=migration,
        )

    def _execute_scale_down(
        self, action: ScaleDownAction, now_s: float
    ) -> AdaptationRecord:
        stage = self._stage(action.stage)
        partition_mb = (
            self.state_store.mb_at_site(stage.name, action.site)
            if stage.stateful
            else 0.0
        )
        self.scheduler.remove_task(stage, action.site)
        # Relay the terminated task's queued input and state to the
        # best-connected surviving site.
        survivors = stage.sites()
        target = max(
            survivors,
            key=lambda s: self.wan_monitor.bandwidth_mbps(action.site, s)
            if s != action.site
            else float("inf"),
        )
        transition = 0.0
        migration = None
        if stage.stateful and partition_mb > 0 and action.site not in survivors:
            migration = plan_migration(
                stage.name,
                {action.site: partition_mb},
                [target],
                self.migration_bandwidth,
                strategy=self._current_strategy(),
                rng=self._rng,
            )
            transition = migration.transition_s
            self.state_lost_mb += migration.state_abandoned_mb
        if stage.stateful:
            self.state_store.rebalance(
                stage.name, [t.site for t in stage.tasks]
            )
        if action.site not in survivors:
            self.runtime.relay_queue(stage.name, action.site, target)
            self.runtime.redirect_flows(stage.name, action.site, target)
        if transition > 0:
            self.runtime.suspend_stage(stage.name, now_s + transition)
        return AdaptationRecord(
            t_s=now_s,
            kind=ActionKind.SCALE_DOWN,
            stage=stage.name,
            reason=action.reason,
            transition_s=transition,
            migration=migration,
        )

    def _execute_replan(
        self, action: ReplanAction, now_s: float
    ) -> AdaptationRecord:
        estimate = action.estimate
        old_plan = self.runtime.plan
        new_plan = estimate.physical
        assignments = dict(estimate.assignments)

        # Keep surviving stateful stages where they run today, so their
        # state never crosses the WAN during the switch - but only when the
        # stage really is the *same* sub-plan (matching signature) and its
        # state outlives windows.  Window-bounded stages re-initialize at
        # the boundary (Section 4.3), so they follow the new plan's
        # placement, which was chosen for the new flow pattern.
        surviving = set(new_plan.stages) & set(old_plan.stages)
        for name in surviving:
            old_stage = old_plan.stage(name)
            if not (old_stage.stateful and old_stage.parallelism > 0):
                continue
            if old_stage.window_s > 0:
                continue
            head = old_stage.head.name
            if head not in new_plan.logical.operators:
                continue
            old_sig = old_plan.logical.subplan_signature(head)
            new_sig = new_plan.logical.subplan_signature(head)
            if old_sig == new_sig:
                assignments[name] = dict(old_stage.placement())

        self.scheduler.undeploy(old_plan)
        self.scheduler.deploy(new_plan, assignments)

        # State: drop removed stages (the safety check guarantees they were
        # stateless or window-bounded), carry surviving ones (placement was
        # pinned above, so no WAN transfer), initialize new stateful stages.
        for name in self.state_store.stage_names():
            if name not in new_plan.stages:
                self.state_store.drop_stage(name)
        for stage in new_plan.topological_stages():
            if not stage.stateful:
                continue
            task_sites = [t.site for t in stage.tasks]
            if stage.name in surviving and self.state_store.total_mb(stage.name) > 0:
                self.state_store.rebalance(stage.name, task_sites)
            else:
                self.state_store.initialize_stage(
                    stage.name, stage.state_mb, task_sites
                )

        self.runtime.replace_plan(new_plan)
        transition = self.config.replan_deploy_overhead_s
        for stage in new_plan.topological_stages():
            if stage.is_source:
                continue
            # Queued/in-flight events destined to sites the new deployment
            # does not cover follow the execution to its new sites.
            self.runtime.rehome_to_placement(
                stage.name, self.wan_monitor.bandwidth_mbps
            )
            self.runtime.suspend_stage(stage.name, now_s + transition)
        return AdaptationRecord(
            t_s=now_s,
            kind=ActionKind.REPLAN,
            stage=action.stage,
            reason=action.reason,
            transition_s=transition,
            migration=None,
        )

    # ------------------------------------------------------------------ #
    # State-migration helpers
    # ------------------------------------------------------------------ #

    def _migrate_for_diff(
        self,
        stage: Stage,
        moved_out: dict[str, float],
        diff: AssignmentDiff,
    ) -> MigrationPlan:
        moved_in: list[str] = []
        for site, count in diff.added.items():
            moved_in.extend([site] * count)
        moved_out = {s: mb for s, mb in moved_out.items() if s in diff.removed}
        plan = plan_migration(
            stage.name,
            moved_out,
            moved_in,
            self.migration_bandwidth,
            strategy=self._current_strategy(),
            rng=self._rng,
        )
        return plan

    def _apply_migration_side_effects(
        self, stage: Stage, migration: MigrationPlan
    ) -> None:
        for transfer in migration.transfers:
            self.checkpoints.forget_site(stage.name, transfer.from_site)
        if stage.stateful:
            task_sites = [t.site for t in stage.tasks]
            if migration.state_abandoned_mb > 0:
                # No Migrate: abandoned partitions restart empty (Section
                # 8.7.1 - "ignoring the state will result in a loss of
                # accuracy in the result").
                self.state_lost_mb += migration.state_abandoned_mb
                remaining = max(
                    0.0,
                    self.state_store.total_mb(stage.name)
                    - migration.state_abandoned_mb,
                )
                self.state_store.initialize_stage(
                    stage.name, remaining, task_sites
                )
            else:
                # The store mirrors deployment: balanced partition per task.
                self.state_store.rebalance(stage.name, task_sites)

    def _rebalance_state(
        self, stage: Stage, before_state: dict[str, float]
    ) -> MigrationPlan:
        """State re-partitioning after a parallelism change (Section 8.7.2).

        The balanced layout assigns ``|state| / p'`` per task; sites with
        excess (including sites the stage vacated entirely) ship slices to
        sites with deficits.  Because the per-slice size shrinks as ``p'``
        grows, scale-out bounds the slowest transfer - the reason state
        partitioning mitigates the adaptation overhead for large states.
        """
        total_mb = self.state_store.total_mb(stage.name)
        placement = stage.placement()
        p_new = max(1, sum(placement.values()))
        share_mb = total_mb / p_new
        target = {site: share_mb * count for site, count in placement.items()}
        strategy = self._current_strategy()
        if strategy is MigrationStrategy.NONE:
            # State partitioning always ships the state: abandoning it here
            # would silently turn a stateful scale into data loss.
            strategy = MigrationStrategy.WASP
        plan = rebalance_transfers(
            stage.name,
            before_state,
            target,
            self.migration_bandwidth,
            strategy=strategy,
            rng=self._rng,
        )
        self.state_store.rebalance(stage.name, [t.site for t in stage.tasks])
        return plan

    def _rehome_orphans(self, stage: Stage, diff: AssignmentDiff) -> None:
        """Move queued input and in-flight traffic off sites the stage no
        longer runs at, onto the best-connected surviving site."""
        survivors = set(stage.placement())
        if not survivors:
            return
        for site in sorted(diff.removed):
            if site in survivors:
                continue
            target = max(
                sorted(survivors),
                key=lambda s: self.wan_monitor.bandwidth_mbps(site, s),
            )
            self.runtime.move_task_queue(stage.name, site, target)
            self.runtime.redirect_flows(stage.name, site, target)
