"""Experiment harness: wire a query + variant + dynamics and run it.

One :class:`ExperimentRun` reproduces one line of one figure: it performs
the WAN-aware initial deployment (Query Planner + Scheduler, Section 2.1),
builds the engine, and - for adapting variants - attaches a Reconfiguration
Manager on the paper's 40-second monitoring cadence plus a Checkpoint
Coordinator on the 30-second checkpointing cadence.

Dynamics follow the driver-program approach of Section 8.2: workload-factor
and bandwidth-factor schedules plus failure injection, all seeded and
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..baselines.variants import VariantSpec
from ..config import WaspConfig
from ..core.controller import ReconfigurationManager
from ..core.longterm import LongTermPlanner, OracleForecaster
from ..core.replanning import Replanner
from ..engine.checkpoint import CheckpointCoordinator
from ..engine.dense import create_runtime
from ..engine.state import StateStore
from ..errors import ConfigurationError, InfeasiblePlacementError
from ..network.monitor import WanMonitor
from ..network.topology import Topology
from ..obs.events import EventBus, Restore
from ..planner.cost import choose_best_deployment
from ..planner.scheduler import Scheduler
from ..sim.clock import SimClock
from ..sim.recorder import RunRecorder, TickSample
from ..sim.rng import RngRegistry
from ..sim.schedule import Schedule
from ..workloads.queries import BenchmarkQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..chaos.injector import ChaosInjector
    from ..obs.sinks import JsonlSink, PrometheusTextfileSink


@dataclass(frozen=True)
class FailureEvent:
    """Revoke (all or some) sites' resources for a duration (Section 8.6)."""

    t_s: float
    duration_s: float
    sites: tuple[str, ...] | None = None  # None = every site

    def __post_init__(self) -> None:
        if self.t_s < 0 or self.duration_s <= 0:
            raise ConfigurationError("failure needs t_s >= 0, duration > 0")

    @property
    def end_s(self) -> float:
        return self.t_s + self.duration_s


@dataclass(frozen=True)
class StragglerEvent:
    """Slow down a site's slots for a duration (the Section-1 straggler
    dynamic: the site keeps running, only slower)."""

    t_s: float
    duration_s: float
    site: str
    slowdown: float = 4.0

    def __post_init__(self) -> None:
        if self.t_s < 0 or self.duration_s <= 0:
            raise ConfigurationError(
                "straggler needs t_s >= 0, duration > 0"
            )
        if self.slowdown < 1.0:
            raise ConfigurationError("slowdown must be >= 1")

    @property
    def end_s(self) -> float:
        return self.t_s + self.duration_s


@dataclass
class DynamicsSpec:
    """The driver program: what changes, when."""

    workload_schedule: Schedule | None = None
    bandwidth_schedule: Schedule | None = None
    link_bandwidth_schedules: dict[tuple[str, str], Schedule] = field(
        default_factory=dict
    )
    failures: list[FailureEvent] = field(default_factory=list)
    stragglers: list[StragglerEvent] = field(default_factory=list)


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
        self.wan_monitor.refresh(0.0)

        # WAN-aware initial deployment over all plan variants.  When no
        # bandwidth-feasible placement exists (a harsh topology draw), fall
        # back to latency-only placement: the query must deploy somewhere
        # and rely on backpressure; the first adaptation round then treats
        # the overload as a bottleneck to resolve.
        source_rates = self._source_rates_at(0.0)
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

        self.state_store = StateStore()
        for stage in estimate.physical.topological_stages():
            if stage.stateful:
                override = (state_mb_override or {}).get(stage.name)
                total = override if override is not None else stage.state_mb
                self.state_store.initialize_stage(
                    stage.name, total, [t.site for t in stage.tasks]
                )
        self._state_mb_override = dict(state_mb_override or {})

        self.runtime = create_runtime(
            topology,
            estimate.physical,
            query.workload,
            self.config,
            degrade_slo_s=variant.degrade_slo_s,
        )
        self.checkpoints = CheckpointCoordinator(
            self.state_store,
            self.config.checkpoint_interval_s,
            obs=self.obs,
        )
        self.manager: ReconfigurationManager | None = None
        if variant.adapts:
            replanner = (
                Replanner(list(query.variants), self.config)
                if variant.replanning and len(query.variants) > 1
                else None
            )
            self.manager = ReconfigurationManager(
                self.runtime,
                self.scheduler,
                self.wan_monitor,
                self.state_store,
                self.checkpoints,
                replanner=replanner,
                config=self.config,
                recorder=self.recorder,
                mode=variant.mode,
                migration_strategy=variant.migration_strategy,
                rng=self.rngs.stream("migration"),
                obs=self.obs,
            )

        self.clock = SimClock(self.config.tick_s)
        # Skip-sites comes from the topology's live failed flags, not the
        # harness's scripted-failure set: chaos-injected crashes must also
        # be excluded from a checkpoint round.
        self.clock.every(
            self.config.checkpoint_interval_s,
            lambda now: self.checkpoints.checkpoint_all(
                now,
                skip_sites={s.name for s in self.topology if s.failed},
            ),
            name="checkpoints",
        )
        if self.manager is not None:
            self.clock.every(
                self.config.monitor_interval_s,
                self._adaptation_round,
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
                self.long_term.config.period_s,
                self.long_term.background_round,
                name="long-term",
            )

        self._dynamics: DynamicsSpec = DynamicsSpec()
        self._failed_now: set[str] = set()
        self._straggling_now: set[str] = set()
        self._fail_start_s: dict[str, float] = {}
        self._chaos: "ChaosInjector | None" = None
        #: Optional invariant checker (repro.fuzz); see :meth:`attach_checker`.
        self._checker = None
        #: Source-equivalents re-queued by checkpoint-replay after failures
        #: (these events are legitimately processed twice).
        self.replayed_source_equiv = 0.0

    # ------------------------------------------------------------------ #
    # Wiring helpers
    # ------------------------------------------------------------------ #

    def _source_rates_at(self, t_s: float) -> dict[str, float]:
        workload = self.query.workload
        return {
            name: workload.generation_eps(name, t_s)
            for name in workload.source_names
        }

    def _adaptation_round(self, now_s: float) -> None:
        assert self.manager is not None
        self.manager.adaptation_round(now_s)
        # Controlled-state experiments keep the stage state pinned to the
        # override even as partitions move/split.
        for stage_name, total in self._state_mb_override.items():
            if self.state_store.sites(stage_name):
                self.state_store.set_total_mb(stage_name, total)

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
        """
        checker.bind(self)
        self.obs.attach(checker)
        self._checker = checker

    # ------------------------------------------------------------------ #
    # Chaos
    # ------------------------------------------------------------------ #

    def attach_chaos(self, injector: "ChaosInjector") -> None:
        """Wire a :class:`~repro.chaos.ChaosInjector` into this run.

        The injector gets the live topology and checkpoint coordinator,
        failure callbacks that reuse this harness's recovery-replay
        semantics, and (when the variant adapts) the controller's
        mid-transaction hook points.  Chaos ticks after scripted dynamics
        each step, so chaos faults win conflicting knobs.
        """
        from ..chaos.faults import ChaosTarget

        injector.attach(
            ChaosTarget(
                topology=self.topology,
                checkpoints=self.checkpoints,
                fail_site=self._chaos_fail_site,
                recover_site=self._chaos_recover_site,
            ),
            manager=self.manager,
        )
        if injector.recorder is None:
            injector.recorder = self.recorder
        injector.obs = self.obs
        self._chaos = injector

    def _chaos_fail_site(self, name: str, now_s: float) -> None:
        site = self.topology.site(name)
        if not site.failed:
            site.fail()
            self._fail_start_s.setdefault(name, now_s)

    def _chaos_recover_site(self, name: str, now_s: float) -> None:
        site = self.topology.site(name)
        # Never recover a site the scripted dynamics still hold down.
        if site.failed and name not in self._failed_now:
            site.recover()
            self._inject_recovery_replay(name, now_s)

    # ------------------------------------------------------------------ #
    # Dynamics
    # ------------------------------------------------------------------ #

    def set_dynamics(self, dynamics: DynamicsSpec) -> None:
        self._dynamics = dynamics
        if dynamics.workload_schedule is not None:
            self.query.workload.set_factor_schedule(
                dynamics.workload_schedule
            )

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
        should_fail: set[str] = set()
        for event in dyn.failures:
            if event.t_s <= t_s < event.end_s:
                targets = (
                    event.sites
                    if event.sites is not None
                    else tuple(self.topology.site_names)
                )
                should_fail.update(targets)
        for name in should_fail - self._failed_now:
            self.topology.site(name).fail()
            self._fail_start_s[name] = t_s
        for name in self._failed_now - should_fail:
            self.topology.site(name).recover()
            self._inject_recovery_replay(name, t_s)
        self._failed_now = should_fail
        slowdowns: dict[str, float] = {}
        for event in dyn.stragglers:
            if event.t_s <= t_s < event.end_s:
                slowdowns[event.site] = max(
                    slowdowns.get(event.site, 1.0), event.slowdown
                )
        for name in set(slowdowns) | self._straggling_now:
            self.topology.site(name).set_slowdown(slowdowns.get(name, 1.0))
        self._straggling_now = set(slowdowns)

    def _inject_recovery_replay(self, site: str, now_s: float) -> None:
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
        rates = self._source_rates_at(fail_start)
        plan = self.runtime.plan
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
            record = self.checkpoints.record(stage.name, site)
            last_snapshot = record.taken_at_s if record else 0.0
            replay_window = max(0.0, fail_start - last_snapshot)
            if replay_window <= 0:
                continue
            share_eps = expected[stage.name]["input"] * count / total
            events = share_eps * replay_window
            self.runtime.inject_replay(
                stage.name, site, events, fail_start - replay_window / 2
            )
            self.obs.emit(
                Restore(
                    now_s,
                    stage=stage.name,
                    site=site,
                    events=events,
                    replay_window_s=replay_window,
                )
            )
            self.replayed_source_equiv += (
                self.runtime.to_source_equivalents(stage.name, events)
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
        ticks = int(math.ceil(duration_s / self.config.tick_s))
        for _ in range(ticks):
            self.step()
        return self.recorder

    def step(
        self, link_budget: dict[tuple[str, str], float] | None = None
    ) -> TickSample:
        """One tick: dynamics -> engine -> recording -> periodic callbacks.

        ``link_budget`` is forwarded to the engine; a multi-query harness
        passes one shared dict per tick so queries contend for the WAN.
        """
        t_next = self.clock.now_s + self.config.tick_s
        self._apply_dynamics(t_next)
        if self._chaos is not None:
            self._chaos.tick(t_next)
        report = self.runtime.tick(link_budget)
        sample = TickSample(
            t_s=report.t_s,
            delay_s=report.mean_sink_delay_s(),
            processed=self.runtime.sink_source_equiv(report.sink_events),
            offered=report.offered,
            dropped=report.dropped_source_equiv,
            parallelism=report.parallelism,
            extra_slots=self.scheduler.extra_slots(),
        )
        self.recorder.record_tick(sample)
        if self.manager is not None:
            self.manager.observe_tick(report)
        if self._checker is not None:
            self._checker.on_report(report)
        self.clock.advance()
        if self._checker is not None:
            self._checker.on_step_end()
        return sample


def run_variants(
    make_topology,
    make_query,
    variants: list[VariantSpec],
    duration_s: float,
    make_dynamics,
    *,
    config: WaspConfig | None = None,
    seed: int | None = None,
    state_mb_override: dict[str, float] | None = None,
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
        state_mb_override: Controlled state sizes (Section 8.7).
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
            state_mb_override=state_mb_override,
        )
        if instrument is not None:
            instrument(variant.name, run)
        run.run(duration_s, make_dynamics(rngs))
        run.obs.close()
        results[variant.name] = run
    return results
