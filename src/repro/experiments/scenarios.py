"""Scenario builders for every Section-8 experiment.

Each function returns the ingredients one figure needs: topology/query
factories, the comparison variants, the dynamics driver, and the run length.
The benchmark harness (and the examples) call these so that tests,
benchmarks and docs all reproduce the figures from a single source of truth.

Timeline of Section 8.4 (Figures 8 and 9):
    t=300   source rate 10,000 -> 20,000 events/s
    t=600   back to 10,000 events/s
    t=900   every link's bandwidth halved
    t=1200  bandwidth restored

Section 8.5 (Figure 10): workload x{1,2,2,1,1} and bandwidth
x{1,1,0.5,0.5,1} in 300 s intervals.

Section 8.6 (Figure 11): per-interval random bandwidth factors in
[0.51, 2.36], workload factors in [0.8, 2.4], and a failure at t=540
revoking all computational resources for 60 seconds.

Sections 8.7.1/8.7.2 (Figures 13 and 14): a controlled adaptation at
t=180 with a controlled state size, comparing migration strategies and
state partitioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..baselines.variants import (
    VariantSpec,
    degrade,
    no_adapt,
    reassign_only,
    replan_only,
    scale_only,
    wasp,
)
from ..chaos.faults import SiteCrash
from ..config import WaspConfig
from ..core.actions import Action, ReassignAction, ScaleAction
from ..core.migration import MigrationStrategy
from ..errors import AdaptationError, InfeasiblePlacementError, WaspError
from ..network.topology import Topology
from ..network.traces import paper_testbed
from ..planner.placement import PlacementProblem, UpstreamFlow
from ..sim.rng import RngRegistry
from ..sim.schedule import Schedule
from ..workloads.queries import (
    BenchmarkQuery,
    events_of_interest,
    topk_topics,
    ysb_advertising,
)
from .harness import DynamicsSpec, ExperimentRun

#: The Section 8.4/8.5 interval length.
STEP_S = 300.0


@dataclass(frozen=True)
class Scenario:
    """Everything needed to run one experiment family."""

    name: str
    duration_s: float
    variants: tuple[VariantSpec, ...]
    make_topology: Callable[[RngRegistry], Topology]
    make_query: Callable[[Topology, RngRegistry], BenchmarkQuery]
    make_dynamics: Callable[[RngRegistry], DynamicsSpec]


def _testbed(rngs: RngRegistry) -> Topology:
    return paper_testbed(rngs.stream("topology"))


#: The Table-3 queries by name, each built over a topology and a run's
#: RNG registry.  The order is the fuzz generator's query draw order.
QUERIES: dict[str, Callable[[Topology, RngRegistry], BenchmarkQuery]] = {
    "ysb-advertising": lambda topo, rngs: ysb_advertising(topo),
    "topk-topics": lambda topo, rngs: topk_topics(topo, rngs.stream("query")),
    "events-of-interest": lambda topo, rngs: events_of_interest(
        topo, rngs.stream("query")
    ),
}


def make_query_by_name(
    name: str,
) -> Callable[[Topology, RngRegistry], BenchmarkQuery]:
    """Query factory keyed by Table-3 name."""
    try:
        return QUERIES[name]
    except KeyError:
        raise WaspError(
            f"unknown query {name!r}; expected one of {tuple(QUERIES)}"
        ) from None


# --------------------------------------------------------------------------- #
# Figures 8 & 9 - wide-area bottlenecks (Section 8.4)
# --------------------------------------------------------------------------- #


def bottleneck_dynamics(rngs: RngRegistry | None = None) -> DynamicsSpec:
    """The Section 8.4 driver: workload steps then bandwidth steps."""
    del rngs  # deterministic
    return DynamicsSpec(
        workload_schedule=Schedule(
            [(0.0, 1.0), (STEP_S, 2.0), (2 * STEP_S, 1.0)]
        ),
        bandwidth_schedule=Schedule(
            [(0.0, 1.0), (3 * STEP_S, 0.5), (4 * STEP_S, 1.0)]
        ),
    )


def fig8_scenario(query_name: str) -> Scenario:
    """One Figure 8/9 panel: No Adapt vs Degrade vs Re-opt (WASP)."""
    return Scenario(
        name=f"fig8-{query_name}",
        duration_s=5 * STEP_S,
        variants=(no_adapt(), degrade(), wasp()),
        make_topology=_testbed,
        make_query=make_query_by_name(query_name),
        make_dynamics=bottleneck_dynamics,
    )


# --------------------------------------------------------------------------- #
# Figure 10 - technique comparison (Section 8.5)
# --------------------------------------------------------------------------- #


def technique_dynamics(rngs: RngRegistry | None = None) -> DynamicsSpec:
    """Workload x{1,2,2,1,1}, bandwidth x{1,1,0.5,0.5,1} (Section 8.5)."""
    del rngs
    return DynamicsSpec(
        workload_schedule=Schedule.steps(STEP_S, [1.0, 2.0, 2.0, 1.0, 1.0]),
        bandwidth_schedule=Schedule.steps(STEP_S, [1.0, 1.0, 0.5, 0.5, 1.0]),
    )


def fig10_scenario() -> Scenario:
    """Re-assign vs Scale vs Re-plan vs No Adapt, Top-K query."""
    return Scenario(
        name="fig10-technique-comparison",
        duration_s=5 * STEP_S,
        variants=(no_adapt(), reassign_only(), scale_only(), replan_only()),
        make_topology=_testbed,
        make_query=make_query_by_name("topk-topics"),
        make_dynamics=technique_dynamics,
    )


# --------------------------------------------------------------------------- #
# Figures 11 & 12 - live environment (Section 8.6)
# --------------------------------------------------------------------------- #

LIVE_DURATION_S = 1_800.0
LIVE_FAILURE_AT_S = 540.0
LIVE_FAILURE_DURATION_S = 60.0


def live_dynamics(rngs: RngRegistry) -> DynamicsSpec:
    """Random bandwidth/workload variation + a total failure (Section 8.6)."""
    bandwidth = Schedule.random_walk(
        rngs.stream("live-bandwidth"),
        duration_s=LIVE_DURATION_S,
        interval_s=STEP_S,
        low=0.51,
        high=2.36,
    )
    workload = Schedule.random_walk(
        rngs.stream("live-workload"),
        duration_s=LIVE_DURATION_S,
        interval_s=180.0,
        low=0.8,
        high=2.4,
    )
    return DynamicsSpec(
        workload_schedule=workload,
        bandwidth_schedule=bandwidth,
        faults=[
            (
                LIVE_FAILURE_AT_S,
                SiteCrash(site=None, duration_s=LIVE_FAILURE_DURATION_S),
            )
        ],
    )


def fig11_scenario() -> Scenario:
    """WASP vs No Adapt vs Degrade in the live trace-driven environment."""
    return Scenario(
        name="fig11-live-environment",
        duration_s=LIVE_DURATION_S,
        variants=(no_adapt(), degrade(), wasp()),
        make_topology=_testbed,
        make_query=make_query_by_name("topk-topics"),
        make_dynamics=live_dynamics,
    )


# --------------------------------------------------------------------------- #
# Figures 13 & 14 - adaptation overhead (Section 8.7)
# --------------------------------------------------------------------------- #

MIGRATION_TRIGGER_AT_S = 180.0
MIGRATION_RUN_DURATION_S = 520.0

#: The stateful stage whose migration Figures 13/14 control.
MIGRATION_STAGE = "win-country"
#: Parallelism cap of the Figure 14 "Partitioned" adaptation.
PARTITIONED_MAX_PARALLELISM = 6


def migration_variants() -> tuple[VariantSpec, ...]:
    """WASP vs No Migrate vs Random vs Distant (Section 8.7.1)."""
    return (
        wasp(MigrationStrategy.NONE),
        wasp(MigrationStrategy.WASP),
        wasp(MigrationStrategy.RANDOM),
        wasp(MigrationStrategy.DISTANT),
    )


def quiet_dynamics(rngs: RngRegistry | None = None) -> DynamicsSpec:
    """No external dynamics - overhead experiments control the trigger."""
    del rngs
    return DynamicsSpec()


def build_migration_run(
    variant: VariantSpec,
    state_mb: float,
    *,
    seed: int = 20,
    config: WaspConfig | None = None,
) -> ExperimentRun:
    """A Top-K run with the controlled state size of Sections 8.7.1/8.7.2."""
    config = config or WaspConfig.paper_defaults()
    rngs = RngRegistry(seed)
    topology = _testbed(rngs)
    query = topk_topics(
        topology, rngs.stream("query"), state_mb=max(state_mb, 0.0)
    )
    run = ExperimentRun(
        topology,
        query,
        variant,
        config=config,
        rngs=rngs,
        state_mb_override={MIGRATION_STAGE: state_mb},
    )
    run.set_dynamics(quiet_dynamics())
    # The overhead experiments control the (single) adaptation themselves;
    # the periodic loop stays off so nothing else perturbs the measurement.
    if run.manager is not None:
        run.clock.set_enabled("adaptation", False)
    _pin_stage_to_edge(run, MIGRATION_STAGE)
    return run


def _pin_stage_to_edge(run: ExperimentRun, stage_name: str) -> None:
    """Host the migrating stage at an edge site before the experiment.

    Section 8.7 studies the cost of migrating state "over a low-bandwidth
    network link": the interesting regime is a task at an edge cluster whose
    links run at public-Internet speeds, not a task on the fast data-center
    mesh.  This setup move is deployment, not an adaptation: it runs the
    apply step alone, happens at t = 0 and leaves no residue (no
    suspension, no log entry), so measurements start clean.
    """
    manager = run.manager
    if manager is None:
        return
    stage = run.runtime.plan.stage(stage_name)
    edges = sorted(
        s.name
        for s in run.topology
        if s.is_edge and s.available_slots >= stage.parallelism
    )
    if not edges:
        return

    def worst_outgoing_bw(site: str) -> float:
        others = [
            run.topology.bandwidth_mbps(site, s.name)
            for s in run.topology
            if s.name != site and s.is_edge
        ]
        return min(others) if others else 0.0

    # The best-connected edge hosts the stage, so every strategy has
    # somewhere feasible to go and the spread between strategies comes from
    # the *destination's* link quality.
    host = max(edges, key=lambda s: (worst_outgoing_bw(s), s))
    action = ReassignAction(
        stage_name, "setup: host at edge", {host: stage.parallelism}
    )
    manager._apply_action(action, run.clock.now_s)
    run.runtime._suspended_until.pop(stage_name, None)


def _feasible_destinations(run: ExperimentRun, stage_name: str) -> list[str]:
    """Edge sites (excluding the current ones) that could host the whole
    stage with sufficient bandwidth to process the actual data stream - the
    paper's Section 8.7.1 guarantee that "the execution would eventually
    stabilize" regardless of the migration strategy.

    Only edges qualify: the controlled experiments stay in the
    public-Internet regime Section 8.7 studies (the stage is hosted at an
    edge and moves between edges).
    """
    manager = run.manager
    assert manager is not None
    plan = run.runtime.plan
    stage = plan.stage(stage_name)
    window = manager.monitor.peek()
    estimates = manager.estimator.estimate(plan, window)
    flows = manager.estimator.upstream_flows_eps(plan, stage, estimates)
    upstream = [
        UpstreamFlow(
            site=site,
            eps=eps,
            event_bytes=plan.stages[up].output_event_bytes,
        )
        for (up, site), eps in sorted(flows.items())
    ]
    slots = run.topology.available_slots()
    for site in stage.placement():
        slots[site] = 0
    for site in list(slots):
        if not run.topology.site(site).is_edge:
            slots[site] = 0
    problem = PlacementProblem(
        parallelism=stage.parallelism,
        upstream=upstream,
        downstream=[],
        available_slots=slots,
        alpha=manager.config.alpha,
    )
    from ..planner.placement import per_site_capacity

    return [
        site
        for site in sorted(slots)
        if slots[site] >= stage.parallelism
        and per_site_capacity(site, problem, manager.wan_monitor)
        >= stage.parallelism
    ]


def force_reassignment(run: ExperimentRun) -> str:
    """Trigger the controlled adaptation of Section 8.7.1 on
    :data:`MIGRATION_STAGE`.

    The migration strategy chooses the *destination site* among the
    stream-feasible candidates: WASP (and No Migrate) pick the site with the
    fastest state transfer from the current location, Random ignores
    bandwidth, and Distant adversarially picks the slowest - mirroring the
    paper's controlled experiment where "the system started adapting the
    query at t=180".  Returns the chosen destination.
    """
    manager = run.manager
    if manager is None:
        raise WaspError("forced re-assignment needs an adapting variant")
    stage_name = MIGRATION_STAGE
    manager.wan_monitor.refresh()
    plan = run.runtime.plan
    stage = plan.stage(stage_name)
    feasible = _feasible_destinations(run, stage_name)
    if not feasible:
        raise InfeasiblePlacementError(
            f"no feasible destination for stage {stage_name!r}"
        )
    state_sites = manager.state_store.sites(stage_name) or stage.sites()

    def migration_bw(dst: str) -> float:
        return min(
            manager.wan_monitor.bandwidth_mbps(src, dst)
            for src in state_sites
        )

    strategy = manager.migration_strategy
    if strategy is MigrationStrategy.RANDOM:
        rng = run.rngs.stream("fig13-destination")
        destination = feasible[int(rng.integers(len(feasible)))]
    elif strategy is MigrationStrategy.DISTANT:
        destination = min(feasible, key=lambda s: (migration_bw(s), s))
    else:  # WASP and NONE both pick the fastest transfer
        destination = max(feasible, key=lambda s: (migration_bw(s), s))

    action = ReassignAction(
        stage_name,
        f"controlled migration experiment -> {destination}",
        {destination: stage.parallelism},
    )
    _force(run, action)
    return destination


def force_partitioned_adaptation(run: ExperimentRun) -> None:
    """The Section 8.7.2 "Partitioned" behaviour, on
    :data:`MIGRATION_STAGE`.

    When the estimated single-destination transition exceeds the run's
    ``t_max_s`` (30 s in the paper's setup), the adaptation scales the
    operator out across several destination sites so each (smaller)
    partition ``|state| / p'`` crosses a *different* link in parallel,
    shrinking the slowest transfer until it fits the threshold (or the
    destination pool runs out).
    """
    manager = run.manager
    if manager is None:
        raise WaspError("forced adaptation needs an adapting variant")
    stage_name = MIGRATION_STAGE
    manager.wan_monitor.refresh()
    stage = run.runtime.plan.stage(stage_name)
    total_mb = manager.state_store.total_mb(stage_name)
    state_sites = manager.state_store.sites(stage_name) or stage.sites()
    feasible = _feasible_destinations(run, stage_name)
    if not feasible:
        raise InfeasiblePlacementError(
            f"no feasible destination for stage {stage_name!r}"
        )

    def migration_bw(dst: str) -> float:
        return min(
            manager.wan_monitor.bandwidth_mbps(src, dst)
            for src in state_sites
        )

    ranked = sorted(feasible, key=lambda s: (-migration_bw(s), s))

    def transition_estimate(p: int) -> float:
        """Slowest transfer with shares spread over the top-p destinations."""
        share = total_mb / p if p else math.inf
        worst = 0.0
        for dst in ranked[:p]:
            bw = migration_bw(dst)
            worst = max(worst, share * 8.0 / bw if bw > 0 else math.inf)
        return worst

    target_p = stage.parallelism
    while (
        transition_estimate(target_p) > manager.config.t_max_s
        and target_p < min(PARTITIONED_MAX_PARALLELISM, len(ranked))
    ):
        target_p += 1

    assignment = {dst: 1 for dst in ranked[:target_p]}
    if target_p > stage.parallelism:
        action: ReassignAction | ScaleAction = ScaleAction(
            stage_name,
            "controlled partitioned adaptation",
            assignment,
            cross_site=True,
        )
    else:
        action = ReassignAction(
            stage_name, "controlled adaptation", assignment
        )
    _force(run, action)


def _force(run: ExperimentRun, action: Action) -> None:
    """Execute a controlled adaptation; raise if every technique of the
    fallback chain rolled back."""
    if run.manager.execute(action, run.clock.now_s) is None:
        raise AdaptationError(
            f"controlled adaptation of stage {action.stage!r} rolled back"
        )


#: State sizes swept by Figure 14.
FIG14_STATE_SIZES_MB = (0.0, 32.0, 64.0, 128.0, 256.0, 512.0)
#: Controlled state size of Figure 13.
FIG13_STATE_MB = 60.0
