"""WASP's adaptation policy - the Figure 6 decision tree (Section 6.2).

For every unhealthy stage the policy decides *which* adaptation to take:

* **compute bottleneck** -> scale **up** the operator, preferring slots at
  the sites it already runs on (remote slots only when local ones run out,
  since they add WAN delay);
* **network bottleneck, stateless query** -> re-optimize the whole pipeline
  (re-plan): nothing needs migrating, so the most powerful adaptation is
  also cheap;
* **network bottleneck, stateful query** -> try **task re-assignment** at
  the current parallelism first; when no placement exists, the estimated
  migration overhead exceeds ``t_max``, or the operator cannot be split,
  fall back to **scale-out** (which also partitions the state, shrinking
  the slowest transfer); when the parallelism would exceed ``p_max`` times
  the initial value, prefer **re-planning** if a state-safe variant exists;
* **wasteful stage** -> **scale down** one task per round (Section 4.2).

The policy is pure decision logic: it never mutates the deployment.  Action
subsets (used by the Section 8.5 baselines) are expressed through
:class:`PolicyMode`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from ..config import WaspConfig
from ..engine.physical import PhysicalPlan, Stage
from ..errors import InfeasiblePlacementError
from ..obs.events import Decide, EventBus
from ..planner.placement import (
    DownstreamDemand,
    NetworkView,
    PlacementProblem,
    UpstreamFlow,
    solve_placement,
)
from .actions import Action, ReassignAction, ReplanAction, ScaleAction, ScaleDownAction
from .diagnosis import Health, StageDiagnosis
from .estimator import StageEstimate, WorkloadEstimator
from .migration import estimate_transition_s
from .replanning import Replanner
from .scaling import (
    compute_scale_out_target,
    compute_scale_up_target,
    pick_scale_down_site,
)


@dataclass(frozen=True)
class PolicyMode:
    """Which adaptation techniques are enabled (Section 8.5 baselines).

    WASP enables everything; ``Re-assign`` only re-assignment; ``Scale``
    re-assignment + scaling; ``Re-plan`` only re-planning.
    """

    allow_reassign: bool = True
    allow_scale: bool = True
    allow_replan: bool = True

    @classmethod
    def wasp(cls) -> "PolicyMode":
        return cls()

    @classmethod
    def reassign_only(cls) -> "PolicyMode":
        return cls(allow_reassign=True, allow_scale=False, allow_replan=False)

    @classmethod
    def scale_only(cls) -> "PolicyMode":
        return cls(allow_reassign=True, allow_scale=True, allow_replan=False)

    @classmethod
    def replan_only(cls) -> "PolicyMode":
        return cls(allow_reassign=False, allow_scale=False, allow_replan=True)


@dataclass
class PolicyContext:
    """Everything one adaptation round knows."""

    plan: PhysicalPlan
    diagnoses: dict[str, StageDiagnosis]
    estimates: dict[str, StageEstimate]
    network: NetworkView
    available_slots: dict[str, int]
    #: (stage, site) -> resident state MB.
    state_mb_at: Callable[[str, str], float]
    source_generation_eps: dict[str, float]
    config: WaspConfig
    replanner: Replanner | None = None
    mode: PolicyMode = field(default_factory=PolicyMode.wasp)
    #: Bandwidth lookup for *bulk state transfers* (may include relay
    #: routing); defaults to the network view's direct lookup.
    migration_bandwidth: "Callable[[str, str], float] | None" = None
    #: Simulated time of the round (stamped on emitted ``decide`` events).
    now_s: float = 0.0

    def migration_bw(self, src: str, dst: str) -> float:
        if self.migration_bandwidth is not None:
            return self.migration_bandwidth(src, dst)
        return self.network.bandwidth_mbps(src, dst)


class AdaptationPolicy:
    """Turns diagnoses into adaptation actions per Figure 6."""

    def __init__(
        self,
        estimator: WorkloadEstimator | None = None,
        *,
        obs: EventBus | None = None,
    ) -> None:
        self._estimator = estimator or WorkloadEstimator()
        #: The event bus ``decide`` events go to.
        self.obs = obs if obs is not None else EventBus()

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #

    def decide(self, ctx: PolicyContext) -> list[Action]:
        actions: list[Action] = []
        replan: ReplanAction | None = None
        # Decisions within one round consume from the same slot pool: work
        # on a copy and debit it per action, so two stages cannot book the
        # same free slot.
        ctx.available_slots = dict(ctx.available_slots)
        for stage in ctx.plan.topological_stages():
            if stage.is_source:
                continue
            diagnosis = ctx.diagnoses.get(stage.name)
            if diagnosis is None:
                continue
            action = self._decide_stage(stage, diagnosis, ctx)
            if action is None:
                continue
            if isinstance(action, ReplanAction):
                # Re-planning replaces the entire execution; it subsumes any
                # per-stage action this round.
                replan = replan or action
            else:
                actions.append(action)
                self._debit_slots(stage, action, ctx)
        decided = [replan] if replan is not None else actions
        for action in decided:
            self.obs.emit(
                Decide(
                    ctx.now_s,
                    stage=action.stage,
                    action=action.kind.value,
                    reason=action.reason,
                )
            )
        return decided

    @staticmethod
    def _debit_slots(
        stage: Stage, action: Action, ctx: PolicyContext
    ) -> None:
        """Reserve the slots an action will claim when executed.

        Freed slots (re-assignment away from a site, scale-down) are *not*
        credited back within the round - they only become usable once the
        action has executed, and being conservative here just defers any
        follow-up to the next monitoring interval.
        """
        current = stage.placement()
        if isinstance(action, (ReassignAction, ScaleAction)):
            for site, count in action.new_assignment.items():
                extra = count - current.get(site, 0)
                if extra > 0:
                    ctx.available_slots[site] = (
                        ctx.available_slots.get(site, 0) - extra
                    )

    # ------------------------------------------------------------------ #
    # Per-stage decision (Figure 6)
    # ------------------------------------------------------------------ #

    def _decide_stage(
        self, stage: Stage, diagnosis: StageDiagnosis, ctx: PolicyContext
    ) -> Action | None:
        if diagnosis.health is Health.HEALTHY:
            return None
        if diagnosis.health is Health.WASTEFUL:
            return self._decide_scale_down(stage, diagnosis, ctx)
        if diagnosis.health is Health.COMPUTE_BOUND:
            return self._decide_compute_bound(stage, diagnosis, ctx)
        return self._decide_network_bound(stage, diagnosis, ctx)

    def _decide_compute_bound(
        self, stage: Stage, diagnosis: StageDiagnosis, ctx: PolicyContext
    ) -> Action | None:
        if not ctx.mode.allow_scale or not stage.splittable:
            # A non-splittable operator (counter/sink) cannot gain tasks
            # without a plan change; or scaling is disabled for this
            # baseline - fall back to what is allowed.
            replan = self._try_replan(stage, "compute bottleneck", ctx)
            if replan is not None:
                return replan
            if ctx.mode.allow_reassign:
                return self._try_reassign(stage, diagnosis, ctx)
            return None
        if diagnosis.slow_sites and ctx.mode.allow_reassign:
            # Straggler signature: aggregate capacity may look fine, but the
            # slow sites cannot drain their balanced share.  Moving the work
            # off them (the compute-aware placement excludes them) beats
            # adding tasks elsewhere, which would leave the slow-site queue
            # in place.
            reassign = self._try_reassign(stage, diagnosis, ctx)
            if reassign is not None:
                return reassign
        decision = compute_scale_up_target(stage, diagnosis, ctx.config)
        if decision.delta <= 0:
            return None
        assignment = self._scale_up_assignment(stage, decision.delta, ctx)
        if assignment is None:
            replan = self._try_replan(
                stage, "compute bottleneck, no slots", ctx
            )
            return replan
        cross_site = any(
            site not in stage.placement() for site in assignment
        )
        target = dict(stage.placement())
        for site, extra in assignment.items():
            target[site] = target.get(site, 0) + extra
        return ScaleAction(
            stage.name,
            f"compute bottleneck: expected {diagnosis.expected_input_eps:.0f}"
            f" eps > capacity {diagnosis.processing_capacity_eps:.0f} eps",
            target,
            cross_site=cross_site,
        )

    def _decide_network_bound(
        self, stage: Stage, diagnosis: StageDiagnosis, ctx: PolicyContext
    ) -> Action | None:
        stateless_query = not any(
            s.stateful for s in ctx.plan.topological_stages()
        )
        if stateless_query and ctx.mode.allow_replan:
            replan = self._try_replan(
                stage, "network bottleneck, stateless query", ctx
            )
            if replan is not None:
                return replan
            # No better plan exists; re-optimize physically instead.

        if ctx.mode.allow_reassign:
            reassign = self._try_reassign(stage, diagnosis, ctx)
            if reassign is not None:
                return reassign

        if ctx.mode.allow_scale and stage.splittable:
            scale = self._try_scale_out(stage, diagnosis, ctx)
            if scale is not None:
                return scale

        if ctx.mode.allow_replan:
            replan = self._try_replan(
                stage, "network bottleneck, no physical adaptation", ctx
            )
            if replan is None and not (
                ctx.mode.allow_reassign or ctx.mode.allow_scale
            ):
                # Re-planning is the only technique available (the Re-plan
                # baseline of Section 8.5): re-evaluate the joint
                # logical+physical deployment even without a hysteresis win,
                # since no other action can resolve the bottleneck.
                replan = self._try_replan(
                    stage,
                    "network bottleneck, forced re-evaluation",
                    ctx,
                    require_improvement=False,
                )
            return replan
        return None

    def _decide_scale_down(
        self, stage: Stage, diagnosis: StageDiagnosis, ctx: PolicyContext
    ) -> Action | None:
        if not ctx.mode.allow_scale:
            return None
        site = pick_scale_down_site(stage)
        reduced = dict(stage.placement())
        reduced[site] -= 1
        if reduced[site] == 0:
            del reduced[site]
        if not self._assignment_feasible(stage, reduced, ctx):
            # Section 4.2: the bandwidth to/from every remaining site must
            # still cover the relayed input/output after the scaling.
            return None
        if stage.stateful and site not in reduced:
            # Merging the vacated partition back must itself be cheap:
            # scale-down is an optional optimization, never worth a long
            # suspension (t_adapt <= t_max applies to every state move).
            partition_mb = ctx.state_mb_at(stage.name, site)
            merge_s = estimate_transition_s(
                stage.name,
                {site: partition_mb},
                sorted(reduced),
                ctx.migration_bw,
            )
            if merge_s > ctx.config.t_max_s:
                return None
        return ScaleDownAction(
            stage.name,
            f"wasteful: utilization {diagnosis.utilization:.2f} < "
            f"{ctx.config.waste_utilization}",
            site,
        )

    def _assignment_feasible(
        self, stage: Stage, assignment: dict[str, int], ctx: PolicyContext
    ) -> bool:
        """Do the bandwidth caps admit this exact placement?"""
        from ..planner.placement import per_site_capacity

        p = sum(assignment.values())
        if p == 0:
            return False
        problem = self._placement_problem(stage, ctx, p)
        return all(
            per_site_capacity(site, problem, ctx.network) >= count
            for site, count in assignment.items()
        )

    # ------------------------------------------------------------------ #
    # Action builders
    # ------------------------------------------------------------------ #

    def _migration_capped_slots(
        self,
        stage: Stage,
        ctx: PolicyContext,
        slots: dict[str, int],
        parallelism: int,
    ) -> dict[str, int]:
        """Zero out candidate sites whose state-slice transfer would blow
        the t_max budget (Section 6.2: t_adapt <= t_max governs every
        adaptation that moves state, including the slices a scale-out
        partitions off)."""
        if not stage.stateful or parallelism <= 0:
            return slots
        current = stage.placement()
        total_mb = sum(
            ctx.state_mb_at(stage.name, site) for site in current
        )
        if total_mb <= 0:
            return slots
        slice_mb = total_mb / parallelism
        state_sites = [
            site
            for site in current
            if ctx.state_mb_at(stage.name, site) > 0
        ] or sorted(current)
        capped = dict(slots)
        for site in slots:
            if site in current:
                continue  # existing sites split locally where possible
            best_bw = max(
                (
                    ctx.migration_bw(src, site)
                    for src in state_sites
                    if src != site
                ),
                default=0.0,
            )
            transfer_s = (
                slice_mb * 8.0 / best_bw if best_bw > 0 else math.inf
            )
            if transfer_s > ctx.config.t_max_s:
                capped[site] = 0
        return capped

    def _placement_problem(
        self,
        stage: Stage,
        ctx: PolicyContext,
        parallelism: int,
        *,
        cap_by_migration: bool = False,
    ) -> PlacementProblem:
        flows = self._estimator.upstream_flows_eps(
            ctx.plan, stage, ctx.estimates
        )
        upstream = [
            UpstreamFlow(
                site=site,
                eps=eps,
                event_bytes=ctx.plan.stages[up_name].output_event_bytes,
            )
            for (up_name, site), eps in sorted(flows.items())
        ]
        estimate = ctx.estimates.get(stage.name)
        out_eps = estimate.output_eps if estimate else 0.0
        downstream: list[DownstreamDemand] = []
        for down in ctx.plan.downstream_stages(stage.name):
            placement = down.placement()
            total = sum(placement.values())
            if total == 0:
                continue
            for site, count in sorted(placement.items()):
                downstream.append(
                    DownstreamDemand(
                        site=site,
                        fraction=count / total,
                        eps=out_eps,
                        event_bytes=stage.output_event_bytes,
                    )
                )
        # The stage's own slots are free to it: re-placing keeps them.
        slots = dict(ctx.available_slots)
        for site, count in stage.placement().items():
            slots[site] = slots.get(site, 0) + count
        if cap_by_migration:
            slots = self._migration_capped_slots(
                stage, ctx, slots, parallelism
            )
        # Per-task compute demand under balanced partitioning: sites whose
        # (possibly straggling) slots cannot keep up host no tasks.
        per_task_demand = 0.0
        site_rates: dict[str, float] | None = None
        rate_lookup = getattr(ctx.network, "site_proc_rate_eps", None)
        if estimate is not None and callable(rate_lookup):
            per_task_demand = estimate.input_eps / max(1, parallelism)
            site_rates = {
                site: rate_lookup(site) / stage.cost for site in slots
            }
            if not any(
                rate >= per_task_demand for rate in site_rates.values()
            ):
                # No site can host a full share: the demand is globally
                # unsatisfiable at this parallelism, so the check would
                # only forbid partially-helpful placements.  Keep it only
                # as a *relative* (straggler) filter.
                per_task_demand = 0.0
        return PlacementProblem(
            parallelism=parallelism,
            upstream=upstream,
            downstream=downstream,
            available_slots=slots,
            alpha=ctx.config.alpha,
            per_task_demand_eps=per_task_demand,
            site_task_rate_eps=site_rates,
        )

    def _try_reassign(
        self, stage: Stage, diagnosis: StageDiagnosis, ctx: PolicyContext
    ) -> ReassignAction | None:
        """Re-solve placement at fixed parallelism; accept if it moves the
        constrained traffic and the migration overhead is tolerable."""
        p = stage.parallelism
        if p == 0:
            return None
        problem = self._placement_problem(stage, ctx, p)
        try:
            solution = solve_placement(problem, ctx.network)
        except InfeasiblePlacementError:
            return None
        if solution.assignment == stage.placement():
            return None
        moved_out = {
            site: ctx.state_mb_at(stage.name, site)
            for site, count in stage.placement().items()
            if solution.assignment.get(site, 0) < count
        }
        moved_in: list[str] = []
        for site, count in solution.assignment.items():
            extra = count - stage.placement().get(site, 0)
            moved_in.extend([site] * max(0, extra))
        t_adapt = estimate_transition_s(
            stage.name, moved_out, moved_in, ctx.migration_bw
        )
        if t_adapt > ctx.config.t_max_s:
            return None
        return ReassignAction(
            stage.name,
            f"network bottleneck on "
            f"{[(l.src_site, l.dst_site) for l in diagnosis.constrained_links]}",
            solution.assignment,
        )

    def _try_scale_out(
        self, stage: Stage, diagnosis: StageDiagnosis, ctx: PolicyContext
    ) -> Action | None:
        decision = compute_scale_out_target(stage, diagnosis)
        target_p = max(decision.target, stage.parallelism + 1)
        if target_p > ctx.config.p_max * max(1, stage.initial_parallelism):
            replan = self._try_replan(
                stage,
                f"parallelism {target_p} would exceed p_max x initial",
                ctx,
            )
            if replan is not None:
                return replan
            target_p = min(
                target_p,
                ctx.config.p_max * max(1, stage.initial_parallelism),
            )
            if target_p <= stage.parallelism:
                return None
        solution = None
        reason_suffix = ""
        for cap_migration in (True, False):
            # First pass: only destinations whose state slice arrives within
            # t_max.  Second pass (last resort): accept a long migration -
            # still better than unbounded queue growth when nothing else is
            # available.
            try:
                solution = solve_placement(
                    self._placement_problem(
                        stage, ctx, target_p, cap_by_migration=cap_migration,
                    ),
                    ctx.network,
                )
                break
            except InfeasiblePlacementError:
                pass
            # Try the largest feasible parallelism above the current one.
            for p in range(target_p - 1, stage.parallelism, -1):
                try:
                    solution = solve_placement(
                        self._placement_problem(
                            stage, ctx, p, cap_by_migration=cap_migration,
                        ),
                        ctx.network,
                    )
                    target_p = p
                    break
                except InfeasiblePlacementError:
                    continue
            if solution is not None:
                break
            reason_suffix = " (migration budget waived: no fast destination)"
        if solution is None:
            return None
        cross_site = set(solution.assignment) - set(stage.placement())
        return ScaleAction(
            stage.name,
            "network bottleneck: scale out to spread load over "
            f"{len(solution.assignment)} sites{reason_suffix}",
            solution.assignment,
            cross_site=bool(cross_site),
        )

    def _scale_up_assignment(
        self, stage: Stage, extra: int, ctx: PolicyContext
    ) -> dict[str, int] | None:
        """Slots for ``extra`` new tasks: local sites first, remote after.

        Returns the *delta* assignment, or None when no slots exist at all.
        """
        remaining = extra
        delta: dict[str, int] = {}
        # Local first: sites already hosting the stage.
        for site in sorted(stage.placement()):
            free = ctx.available_slots.get(site, 0) - delta.get(site, 0)
            take = min(free, remaining)
            if take > 0:
                delta[site] = delta.get(site, 0) + take
                remaining -= take
            if remaining == 0:
                return delta
        # Remote: closest sites by latency to the stage's primary site,
        # excluding (for stateful stages) destinations whose state slice
        # could not arrive within the t_max budget.
        anchor = next(iter(sorted(stage.placement())), None)
        remote_slots = {
            s: n
            for s, n in ctx.available_slots.items()
            if s not in stage.placement()
        }
        remote_slots = self._migration_capped_slots(
            stage, ctx, remote_slots, stage.parallelism + extra
        )
        candidates = sorted(
            (s for s, n in remote_slots.items() if n > 0),
            key=lambda s: (
                ctx.network.latency_ms(anchor, s) if anchor else 0.0,
                s,
            ),
        )
        for site in candidates:
            free = ctx.available_slots.get(site, 0) - delta.get(site, 0)
            take = min(free, remaining)
            if take > 0:
                delta[site] = delta.get(site, 0) + take
                remaining -= take
            if remaining == 0:
                return delta
        return delta if delta else None

    def _try_replan(
        self,
        stage: Stage,
        reason: str,
        ctx: PolicyContext,
        *,
        require_improvement: bool = True,
    ) -> ReplanAction | None:
        if ctx.replanner is None or not ctx.mode.allow_replan:
            return None
        # Re-planning may reuse every slot the current deployment holds.
        slots = dict(ctx.available_slots)
        for s in ctx.plan.topological_stages():
            for site, count in s.placement().items():
                slots[site] = slots.get(site, 0) + count
        proposal = ctx.replanner.propose(
            ctx.plan.logical,
            ctx.plan,
            ctx.network,
            slots,
            ctx.source_generation_eps,
            require_improvement=require_improvement,
        )
        if proposal is None:
            return None
        return ReplanAction(
            stage.name,
            f"{reason}; switch to {proposal.new_plan_name} "
            f"(score {proposal.estimate.delay_score_ms:.1f}ms vs "
            f"{proposal.current_score_ms:.1f}ms)",
            proposal.estimate,
        )
