"""Experiment harness: wire a query + variant + dynamics and run it.

One :class:`ExperimentRun` reproduces one line of one figure: it performs
the WAN-aware initial deployment (Query Planner + Scheduler, Section 2.1),
builds the engine, and - for adapting variants - attaches a Reconfiguration
Manager on the paper's 40-second monitoring cadence plus a Checkpoint
Coordinator on the 30-second checkpointing cadence.

Dynamics follow the driver-program approach of Section 8.2: workload-factor
and bandwidth-factor schedules plus scheduled faults (site crashes,
stragglers, ...), which fire through the run's chaos injector.  All of it is
seeded and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..baselines.variants import VariantSpec
from ..chaos.faults import ChaosTarget, Fault
from ..chaos.injector import ChaosInjector
from ..config import WaspConfig
from ..core import longterm
from ..core.controller import ReconfigurationManager
from ..core.longterm import LongTermPlanner, OracleForecaster
from ..core.replanning import Replanner
from ..engine.checkpoint import CheckpointCoordinator
from ..engine.dense import create_runtime
from ..engine.runtime import TICK_S, EngineRuntime, TickReport
from ..engine.state import StateStore
from ..errors import ChaosError, ConfigurationError, InfeasiblePlacementError
from ..network.monitor import WanMonitor
from ..network.topology import Topology
from ..obs.events import EventBus, Restore
from ..planner.cost import choose_best_deployment
from ..planner.scheduler import Scheduler
from ..sim.clock import SimClock
from ..sim.recorder import RunRecorder
from ..sim.rng import RngRegistry
from ..sim.schedule import Schedule
from ..workloads.base import ShapedWorkload
from ..workloads.queries import BenchmarkQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.sinks import JsonlSink, PrometheusTextfileSink


@dataclass
class DynamicsSpec:
    """The driver program: what changes, when.

    The harness applies the factor schedules every tick; each ``(t_s,
    fault)`` in ``faults`` fires once through the run's chaos injector
    (``ChaosInjector.at``), e.g. ``(540.0, SiteCrash(None, 60.0))`` for the
    Section 8.6 outage or ``(60.0, Straggler("edge-1", 4.0, 120.0))``.
    """

    workload_schedule: Schedule | None = None
    bandwidth_schedule: Schedule | None = None
    link_bandwidth_schedules: dict[tuple[str, str], Schedule] = field(
        default_factory=dict
    )
    faults: list[tuple[float, Fault]] = field(default_factory=list)


def _source_rates_at(
    workload: ShapedWorkload, t_s: float
) -> dict[str, float]:
    names = workload.source_names
    return dict(zip(names, workload.generation_rates(names, t_s)))


def _adaptation_round(
    manager: ReconfigurationManager,
    state_store: StateStore,
    state_mb_override: dict[str, float],
) -> Callable[[float], None]:
    """The clock's adaptation callback: one controller round, then the
    controlled-state pin (Section 8.7 experiments keep the stage state at
    the override even as partitions move/split)."""

    def adaptation_round(now_s: float) -> None:
        manager.adaptation_round(now_s)
        for stage_name, total in state_mb_override.items():
            if state_store.sites(stage_name):
                state_store.set_total_mb(stage_name, total)

    return adaptation_round


class _SiteRecovery:
    """A run's crash bookkeeping: the chaos target's site callbacks.

    Tracks when each failed site went down and, when it recovers, injects
    the checkpoint replay of its lost work.  It holds the run's components,
    not the run, so the run's chaos injector forms no cycle back to it.
    """

    def __init__(
        self,
        topology: Topology,
        workload: ShapedWorkload,
        runtime: EngineRuntime,
        checkpoints: CheckpointCoordinator,
        obs: EventBus,
    ) -> None:
        self._topology = topology
        self._workload = workload
        self._runtime = runtime
        self._checkpoints = checkpoints
        self._obs = obs
        self._fail_start_s: dict[str, float] = {}
        self.replayed_source_equiv = 0.0

    def fail_site(self, name: str, now_s: float) -> None:
        site = self._topology.site(name)
        if not site.failed:
            site.fail()
            self._fail_start_s.setdefault(name, now_s)

    def recover_site(self, name: str, now_s: float) -> None:
        site = self._topology.site(name)
        if site.failed:
            site.recover()
            self._inject_replay(name, now_s)

    def _inject_replay(self, site: str, now_s: float) -> None:
        """Replay work lost with a failed site's un-checkpointed progress.

        A task restored from its last local checkpoint must re-process
        every event it had consumed since that snapshot (Section 5): the
        replay window is the gap between the snapshot and the failure, and
        the replayed events re-enter the input queue with their original
        ages, so the recovery's latency cost is measured honestly.
        """
        fail_start = self._fail_start_s.pop(site, None)
        if fail_start is None:
            return
        rates = _source_rates_at(self._workload, fail_start)
        plan = self._runtime.plan
        expected = plan.expected_stage_rates(rates)

        # Consistent-snapshot semantics: replay enters the dataflow at the
        # most upstream restored stage only; everything downstream receives
        # the replayed stream through the normal edges.  Injecting at every
        # restored stage would process the same window twice.
        restoring: set[str] = set()
        for stage in plan.topological_stages():
            if stage.stateful and stage.placement().get(site, 0) > 0:
                restoring.add(stage.name)

        def has_restoring_ancestor(name: str) -> bool:
            frontier = [u.name for u in plan.upstream_stages(name)]
            seen = set(frontier)
            while frontier:
                current = frontier.pop()
                if current in restoring:
                    return True
                for up in plan.upstream_stages(current):
                    if up.name not in seen:
                        seen.add(up.name)
                        frontier.append(up.name)
            return False

        for stage in plan.topological_stages():
            if stage.name not in restoring:
                continue
            if has_restoring_ancestor(stage.name):
                continue
            placement = stage.placement()
            count = placement.get(site, 0)
            total = sum(placement.values())
            if count == 0 or total == 0:
                continue
            record = self._checkpoints.record(stage.name, site)
            last_snapshot = record.taken_at_s if record else 0.0
            replay_window = max(0.0, fail_start - last_snapshot)
            if replay_window <= 0:
                continue
            share_eps = expected[stage.name]["input"] * count / total
            events = share_eps * replay_window
            self._runtime.inject_replay(
                stage.name, site, events, fail_start - replay_window / 2
            )
            self._obs.emit(
                Restore(
                    now_s,
                    stage=stage.name,
                    site=site,
                    events=events,
                    replay_window_s=replay_window,
                )
            )
            self.replayed_source_equiv += (
                self._runtime.to_source_equivalents(stage.name, events)
            )


class ExperimentRun:
    """A fully-wired single run (one variant, one query, one dynamics)."""

    def __init__(
        self,
        topology: Topology,
        query: BenchmarkQuery,
        variant: VariantSpec,
        *,
        config: WaspConfig | None = None,
        rngs: RngRegistry | None = None,
        state_mb_override: dict[str, float] | None = None,
    ) -> None:
        self.topology = topology
        self.query = query
        self.variant = variant
        self.config = config or WaspConfig.paper_defaults()
        self.rngs = rngs or RngRegistry(self.config.seed)
        self.recorder = RunRecorder(name=f"{query.name}/{variant.name}")
        #: The run's event bus (repro.obs), shared by every component;
        #: emitting costs a call until a sink is attached (see
        #: :meth:`attach_trace`).
        self.obs = EventBus()

        self.wan_monitor = WanMonitor(
            topology,
            self.rngs.stream("wan-monitor"),
            relative_error=self.config.estimation_error,
        )
        self.wan_monitor.refresh()

        # WAN-aware initial deployment over all plan variants.  When no
        # bandwidth-feasible placement exists (a harsh topology draw), fall
        # back to latency-only placement: the query must deploy somewhere
        # and rely on backpressure; the first adaptation round then treats
        # the overload as a bottleneck to resolve.
        source_rates = _source_rates_at(query.workload, 0.0)
        try:
            estimate = choose_best_deployment(
                list(query.variants),
                self.wan_monitor,
                topology.available_slots(),
                source_rates,
                alpha=self.config.alpha,
            )
        except InfeasiblePlacementError:
            estimate = choose_best_deployment(
                list(query.variants),
                self.wan_monitor,
                topology.available_slots(),
                source_rates,
                alpha=self.config.alpha,
                relaxed=True,
            )
        self.scheduler = Scheduler(topology)
        self.scheduler.deploy(estimate.physical, estimate.assignments)

        state_store = self.state_store = StateStore()
        for stage in estimate.physical.topological_stages():
            if stage.stateful:
                override = (state_mb_override or {}).get(stage.name)
                total = override if override is not None else stage.state_mb
                state_store.initialize_stage(
                    stage.name, total, [t.site for t in stage.tasks]
                )

        self.runtime = create_runtime(
            topology,
            estimate.physical,
            query.workload,
            self.config,
            degrade_slo_s=variant.degrade_slo_s,
        )
        checkpoints = self.checkpoints = CheckpointCoordinator(
            state_store, obs=self.obs
        )
        self.manager: ReconfigurationManager | None = None
        if variant.adapts:
            replanner = (
                Replanner(list(query.variants), self.config)
                if variant.mode.allow_replan and len(query.variants) > 1
                else None
            )
            self.manager = ReconfigurationManager(
                self.runtime,
                self.scheduler,
                self.wan_monitor,
                state_store,
                checkpoints,
                replanner=replanner,
                config=self.config,
                recorder=self.recorder,
                mode=variant.mode,
                migration_strategy=variant.migration_strategy,
                rng=self.rngs.stream("migration"),
                obs=self.obs,
            )

        # The clock's callbacks close over the components they drive, never
        # over the run: a finished run then holds no reference cycle and is
        # freed as soon as its last reference goes.
        self.clock = SimClock(TICK_S)
        # Sites that are down skip the checkpoint round.
        self.clock.every(
            self.config.checkpoint_interval_s,
            lambda now: checkpoints.checkpoint_all(
                now,
                skip_sites={s.name for s in topology if s.failed},
            ),
            name="checkpoints",
        )
        if self.manager is not None:
            self.clock.every(
                self.config.monitor_interval_s,
                _adaptation_round(
                    self.manager, state_store, dict(state_mb_override or {})
                ),
                name="adaptation",
            )
        self.long_term: LongTermPlanner | None = None
        if (
            self.manager is not None
            and variant.long_term
            and self.manager.replanner is not None
        ):
            self.long_term = LongTermPlanner(
                self.manager,
                OracleForecaster(
                    query.workload, query.workload.source_names
                ),
            )
            self.clock.every(
                longterm.PERIOD_S,
                self.long_term.background_round,
                name="long-term",
            )

        self._dynamics: DynamicsSpec = DynamicsSpec()
        self._recovery = _SiteRecovery(
            topology, query.workload, self.runtime, checkpoints, self.obs
        )
        self._chaos: ChaosInjector | None = None
        #: Optional invariant checker (repro.fuzz); see :meth:`attach_checker`.
        self._checker = None

    @property
    def replayed_source_equiv(self) -> float:
        """Source-equivalents re-queued by checkpoint-replay after failures
        (these events are legitimately processed twice)."""
        return self._recovery.replayed_source_equiv

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #

    def attach_trace(self, path) -> "JsonlSink":
        """Attach a JSONL trace sink writing to ``path``; returns the sink.

        Close the bus (``run.obs.close()``) when the run finishes so the
        file is flushed."""
        from ..obs.sinks import JsonlSink

        return self.obs.attach(JsonlSink(path))

    def attach_metrics(self, path) -> "PrometheusTextfileSink":
        """Attach a Prometheus textfile exporter writing to ``path``."""
        from ..obs.sinks import PrometheusTextfileSink

        return self.obs.attach(PrometheusTextfileSink(path))

    def attach_checker(self, checker) -> None:
        """Wire a :class:`~repro.fuzz.InvariantChecker` into this run.

        The checker is attached to the event bus (it consumes the full
        adaptation lifecycle) and additionally hooked into :meth:`step`:
        ``on_report`` fires with every :class:`TickReport` after the
        controller has observed it but *before* the periodic callbacks run,
        and ``on_step_end`` fires once the tick (including any adaptation
        round) has fully completed.

        A run takes one checker, and a checker checks one run: a second
        attach, or a checker still bound to another live run, raises
        :class:`~repro.errors.ConfigurationError`.  The checker holds the
        run by weak reference (see :meth:`InvariantChecker.bind`).
        """
        if self._checker is not None:
            raise ConfigurationError("run already has an invariant checker")
        checker.bind(self)
        self.obs.attach(checker)
        self._checker = checker

    # ------------------------------------------------------------------ #
    # Chaos
    # ------------------------------------------------------------------ #

    def attach_chaos(self, injector: ChaosInjector) -> None:
        """Wire a :class:`~repro.chaos.ChaosInjector` into this run.

        The injector gets the live topology and checkpoint coordinator,
        failure callbacks that inject this harness's recovery replay, and
        (when the variant adapts) the controller's mid-transaction hook
        points.  Chaos ticks after the factor schedules each step, so a
        fault wins a knob a schedule also sets.  A run has one injector:
        the faults of a :class:`DynamicsSpec` are scheduled on it, and a
        second attach raises :class:`~repro.errors.ChaosError`, as does an
        injector that records into another run's recorder.
        """
        if self._chaos is not None:
            raise ChaosError(
                "run already has a chaos injector (attach yours before "
                "installing a DynamicsSpec with faults)"
            )
        if injector.recorder not in (None, self.recorder):
            raise ChaosError(
                "injector records into another RunRecorder; a run's faults "
                "belong in the run's recorder (leave recorder unset)"
            )
        injector.attach(
            ChaosTarget(
                topology=self.topology,
                checkpoints=self.checkpoints,
                fail_site=self._recovery.fail_site,
                recover_site=self._recovery.recover_site,
            ),
            manager=self.manager,
        )
        injector.recorder = self.recorder
        injector.obs = self.obs
        self._chaos = injector

    # ------------------------------------------------------------------ #
    # Dynamics
    # ------------------------------------------------------------------ #

    def set_dynamics(self, dynamics: DynamicsSpec) -> None:
        """Install ``dynamics``: its schedules and its faults.

        The faults go on the run's chaos injector, created (seeded from
        the ``"chaos"`` stream) if the run has none.  Re-installing the
        spec already installed is a no-op, so ``run.run(dt, spec)`` in a
        loop fires each fault once.
        """
        if dynamics is self._dynamics:
            return
        self._dynamics = dynamics
        if dynamics.workload_schedule is not None:
            self.query.workload.set_factor_schedule(
                dynamics.workload_schedule
            )
        if dynamics.faults and self._chaos is None:
            self.attach_chaos(ChaosInjector(rng=self.rngs.stream("chaos")))
        for t_s, fault in dynamics.faults:
            self._chaos.at(t_s, fault)

    def _apply_dynamics(self, t_s: float) -> None:
        dyn = self._dynamics
        if dyn.bandwidth_schedule is not None:
            self.topology.set_global_bandwidth_factor(
                dyn.bandwidth_schedule.factor(t_s)
            )
        for (src, dst), schedule in dyn.link_bandwidth_schedules.items():
            self.topology.set_bandwidth_factor(
                src, dst, schedule.factor(t_s)
            )

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def run(
        self,
        duration_s: float,
        dynamics: DynamicsSpec | None = None,
    ) -> RunRecorder:
        """Advance the experiment by ``duration_s`` of simulated time."""
        if dynamics is not None:
            self.set_dynamics(dynamics)
        ticks = int(math.ceil(duration_s / TICK_S))
        for _ in range(ticks):
            self.step()
        return self.recorder

    def step(
        self, link_budget: dict[tuple[str, str], float] | None = None
    ) -> TickReport:
        """One tick: dynamics -> engine -> recording -> periodic callbacks.

        ``link_budget`` is forwarded to the engine; a multi-query harness
        passes one shared dict per tick so queries contend for the WAN.
        Returns the engine's report of the tick; its recorded
        :class:`~repro.sim.recorder.TickSample` is
        ``recorder.samples[-1]``.
        """
        t_next = self.clock.now_s + TICK_S
        self._apply_dynamics(t_next)
        if self._chaos is not None:
            self._chaos.tick(t_next)
        report = self.runtime.tick(link_budget)
        parallelism = report.parallelism
        self.recorder.record_tick(
            report.t_s,
            report.mean_sink_delay_s(),
            self.runtime.sink_source_equiv(report.sink_events),
            report.offered,
            report.dropped_source_equiv,
            parallelism,
            # The plan's tasks beyond the initial deployment (per query).
            parallelism - self.scheduler.initial_slots,
        )
        if self.manager is not None:
            self.manager.observe_tick(report)
        if self._checker is not None:
            self._checker.on_report(report)
        self.clock.advance()
        if self._checker is not None:
            self._checker.on_step_end()
        return report


def run_variants(
    make_topology,
    make_query,
    variants: list[VariantSpec],
    duration_s: float,
    make_dynamics,
    *,
    config: WaspConfig | None = None,
    seed: int | None = None,
    instrument=None,
) -> dict[str, ExperimentRun]:
    """Run several variants under *identical* (independently re-created)
    conditions: each variant gets its own topology/query instances built
    from the same seed, so adaptations cannot cross-contaminate runs.

    Args:
        make_topology: ``(RngRegistry) -> Topology``.
        make_query: ``(Topology, RngRegistry) -> BenchmarkQuery``.
        variants: Comparison lines.
        duration_s: Simulated run length.
        make_dynamics: ``(RngRegistry) -> DynamicsSpec``.
        config: Shared configuration.
        seed: Master seed (defaults to the config's).
        instrument: Optional ``(variant_name, run) -> None`` hook called
            before each run starts - e.g. to attach trace sinks.
    """
    config = config or WaspConfig.paper_defaults()
    results: dict[str, ExperimentRun] = {}
    for variant in variants:
        rngs = RngRegistry(seed if seed is not None else config.seed)
        topology = make_topology(rngs)
        query = make_query(topology, rngs)
        run = ExperimentRun(
            topology,
            query,
            variant,
            config=config,
            rngs=rngs,
        )
        if instrument is not None:
            instrument(variant.name, run)
        run.run(duration_s, make_dynamics(rngs))
        run.obs.close()
        results[variant.name] = run
    return results
