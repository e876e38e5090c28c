"""The microbenchmarks themselves (all seeded, all deterministic).

Timing uses :func:`time.perf_counter` around fixed amounts of *work* (a
fixed op count or a fixed simulated duration), so results are comparable
across commits; only the wall time varies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.baselines.variants import wasp
from repro.engine.queues import FluidQueue
from repro.engine.runtime import EngineRuntime
from repro.experiments.harness import ExperimentRun
from repro.experiments.scenarios import bottleneck_dynamics, fig8_scenario
from repro.sim.rng import RngRegistry

#: Seed shared by every benchmark (same world across commits).
BENCH_SEED = 42


@dataclass
class BenchResult:
    """One benchmark's measurements, JSON-serializable via ``__dict__``."""

    name: str
    wall_s: float
    #: primary throughput metric (ops/sec or ticks/sec)
    rate_per_s: float
    unit: str
    detail: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "wall_s": self.wall_s,
            "rate_per_s": self.rate_per_s,
            "unit": self.unit,
            "detail": dict(self.detail),
        }


# --------------------------------------------------------------------------- #
# Queue ops
# --------------------------------------------------------------------------- #


def bench_queue_ops(ops: int = 200_000) -> BenchResult:
    """Tight push/pop/drop cycles on one FluidQueue.

    The access pattern mirrors the engine's: pushes at advancing gen times
    (merging adjacent parcels), fractional pops, and occasional SLO drops -
    the three ops `_run_stage` and `_transfer_stage_flows` hammer.
    """
    queue = FluidQueue()
    t0 = time.perf_counter()
    now = 0.0
    counts: list[float] = []
    gens: list[float] = []
    for i in range(ops):
        now += 0.25
        queue.push(100.0 + (i % 7), now)
        if i % 2 == 1:
            counts.clear()
            gens.clear()
            queue.pop_into(150.0, counts, gens)
        if i % 64 == 63:
            queue.drop_oldest(50.0)
        if i % 256 == 255:
            queue.drop_older_than(now - 16.0)
    wall = time.perf_counter() - t0
    return BenchResult(
        name="queue_ops",
        wall_s=wall,
        rate_per_s=ops / wall if wall > 0 else float("inf"),
        unit="ops/s",
        detail={"ops": float(ops), "residual_count": queue.count},
    )


def bench_queue_fused_ops(rounds: int = 20_000) -> BenchResult:
    """The fused/batched FluidQueue ops the tick path leans on.

    Each round mimics one stage output crossing the WAN: a donor queue
    pops a burst (``pop_into``), routes its share onto a flow queue
    (``push_scaled``), and the flow moves a link budget into the receiver
    aged by the latency (``transfer_into``); then periodic SLO maintenance
    (``drop_oldest`` / ``drop_older_than``) and snapshot pressure
    (``clone_cow`` followed by a mutation, so copy-on-write actually pays
    its materialization).
    """
    donor = FluidQueue()
    flow = FluidQueue()
    receiver = FluidQueue()
    now = 0.0
    for i in range(64):
        now += 0.5
        donor.push(200.0 + (i % 5), now)
    counts: list[float] = []
    gens: list[float] = []
    t0 = time.perf_counter()
    for i in range(rounds):
        now += 0.25
        donor.push(120.0 + (i % 3), now)
        counts.clear()
        gens.clear()
        donor.pop_into(110.0, counts, gens)
        flow.push_scaled(counts, gens, 0.5)
        flow.transfer_into(receiver, 50.0, 0.040)
        if i % 32 == 31:
            receiver.drop_oldest(90.0)
        if i % 128 == 127:
            receiver.drop_older_than(now - 24.0)
        if i % 256 == 255:
            snap = receiver.clone_cow()
            receiver.push(1.0, now)  # force the copy-on-write to pay
            snap.drop_oldest(1.0)
    wall = time.perf_counter() - t0
    return BenchResult(
        name="queue_fused_ops",
        wall_s=wall,
        rate_per_s=rounds / wall if wall > 0 else float("inf"),
        unit="rounds/s",
        detail={
            "rounds": float(rounds),
            "residual_donor": donor.count,
            "residual_receiver": receiver.count,
        },
    )


# --------------------------------------------------------------------------- #
# Single tick (engine only, no controller)
# --------------------------------------------------------------------------- #


def _build_run(variant=None) -> ExperimentRun:
    scenario = fig8_scenario("topk-topics")
    rngs = RngRegistry(BENCH_SEED)
    topology = scenario.make_topology(rngs)
    query = scenario.make_query(topology, rngs)
    return ExperimentRun(topology, query, variant or wasp(), rngs=rngs)


def _queue_stats(runtime: EngineRuntime) -> tuple[float, int]:
    """(total queued events, total parcel objects) across all queue tables."""
    events = 0.0
    parcels = 0
    for table in (
        runtime._gen_queue,
        runtime._input_queue,
        runtime._net_queue,
    ):
        for queue in table.values():
            events += queue.count
            parcels += len(queue)
    return events, parcels


def bench_single_tick(ticks: int = 600) -> BenchResult:
    """The engine hot loop alone: tick a deployed Fig-8 runtime.

    The run's controller/checkpoint clock callbacks are bypassed - this
    times ``Runtime.tick()`` and nothing else.  The workload steps at
    t=300s so backlog builds up and queues stay non-trivial.
    """
    run = _build_run()
    run.set_dynamics(bottleneck_dynamics())
    runtime = run.runtime
    dt = run.config.tick_s
    peak_events, peak_parcels = 0.0, 0
    t0 = time.perf_counter()
    for i in range(ticks):
        run._apply_dynamics((i + 1) * dt)
        runtime.tick()
        if i % 16 == 0:
            events, parcels = _queue_stats(runtime)
            peak_events = max(peak_events, events)
            peak_parcels = max(peak_parcels, parcels)
    wall = time.perf_counter() - t0
    events, parcels = _queue_stats(runtime)
    peak_events = max(peak_events, events)
    peak_parcels = max(peak_parcels, parcels)
    return BenchResult(
        name="single_tick",
        wall_s=wall,
        rate_per_s=ticks / wall if wall > 0 else float("inf"),
        unit="ticks/s",
        detail={
            "ticks": float(ticks),
            "peak_queued_events": peak_events,
            "peak_parcels": float(peak_parcels),
        },
    )


# --------------------------------------------------------------------------- #
# Full scenario (planner + controller + engine)
# --------------------------------------------------------------------------- #


def bench_full_scenario(duration_s: float = 600.0) -> BenchResult:
    """One Figure-8-style ExperimentRun end to end (WASP variant).

    This is what every figure regeneration pays per variant: dynamics,
    engine ticks, metric collection, checkpoint rounds and adaptation
    rounds on the paper cadences.
    """
    run = _build_run()
    ticks = int(duration_s / run.config.tick_s)
    peak_events, peak_parcels = 0.0, 0
    t0 = time.perf_counter()
    run.set_dynamics(bottleneck_dynamics())
    for i in range(ticks):
        run.step()
        if i % 16 == 0:
            events, parcels = _queue_stats(run.runtime)
            peak_events = max(peak_events, events)
            peak_parcels = max(peak_parcels, parcels)
    wall = time.perf_counter() - t0
    recorder = run.recorder
    return BenchResult(
        name="full_scenario",
        wall_s=wall,
        rate_per_s=ticks / wall if wall > 0 else float("inf"),
        unit="ticks/s",
        detail={
            "ticks": float(ticks),
            "duration_s": duration_s,
            "peak_queued_events": peak_events,
            "peak_parcels": float(peak_parcels),
            "total_processed": recorder.total_processed(),
            "adaptations": float(len(recorder.adaptations)),
        },
    )


# --------------------------------------------------------------------------- #
# Snapshot cost (transactional adaptation)
# --------------------------------------------------------------------------- #


def bench_snapshot(rounds: int = 200, warm_ticks: int = 350) -> BenchResult:
    """mutation_snapshot + restore cycles on a loaded runtime.

    The runtime first ticks through the Fig-8 workload surge so the queue
    tables are populated; each round then snapshots, mutates one queue (so
    copy-on-write implementations cannot skip all work), and restores.
    """
    run = _build_run()
    run.set_dynamics(bottleneck_dynamics())
    dt = run.config.tick_s
    for i in range(warm_ticks):
        run._apply_dynamics((i + 1) * dt)
        run.runtime.tick()
    runtime = run.runtime
    events, parcels = _queue_stats(runtime)
    source = runtime.plan.source_stages()[0]
    key = (source.name, source.pinned_site)
    t0 = time.perf_counter()
    for _ in range(rounds):
        snapshot = runtime.mutation_snapshot()
        queue = runtime._gen_queue[key]
        queue.push(1.0, runtime.now_s)
        queue.drop_oldest(1.0)
        runtime.restore_mutation_snapshot(snapshot)
    wall = time.perf_counter() - t0
    return BenchResult(
        name="snapshot",
        wall_s=wall,
        rate_per_s=rounds / wall if wall > 0 else float("inf"),
        unit="snapshots/s",
        detail={
            "rounds": float(rounds),
            "queued_events_at_snapshot": events,
            "parcels_at_snapshot": float(parcels),
        },
    )


# --------------------------------------------------------------------------- #
# Adaptation round bookkeeping (control plane)
# --------------------------------------------------------------------------- #


def bench_adaptation_round(
    calls: int = 200, warm_s: float = 400.0
) -> BenchResult:
    """Per-call cost of a monitoring round's two bookkeeping steps.

    A 16-site Figure-8 WASP run is stepped to one tick before the adaptation
    round at ``warm_s``, so the metric monitor holds a full window of tick
    reports.  Each call then times ``WanMonitor.refresh`` over every link
    and ``GlobalMetricMonitor.collect`` over that window (re-fed through
    ``observe`` outside the timed region, since ``collect`` resets it).
    """
    run = _build_run()
    run.set_dynamics(bottleneck_dynamics())
    dt = run.config.tick_s
    for _ in range(int(round(warm_s / dt)) - 1):
        run.step()
    manager = run.manager
    wan = manager.wan_monitor
    metrics = manager.monitor
    runtime = run.runtime
    window = list(metrics._reports)
    now = run.clock.now_s
    refresh_s = collect_s = 0.0
    for _ in range(calls):
        t0 = time.perf_counter()
        wan.refresh(now)
        t1 = time.perf_counter()
        for report in window:
            metrics.observe(report)
        t2 = time.perf_counter()
        metrics.collect(runtime.sink_source_equiv)
        t3 = time.perf_counter()
        refresh_s += t1 - t0
        collect_s += t3 - t2
    wall = refresh_s + collect_s
    return BenchResult(
        name="adaptation_round",
        wall_s=wall,
        rate_per_s=calls / wall if wall > 0 else float("inf"),
        unit="rounds/s",
        detail={
            "calls": float(calls),
            "links": float(len(wan.bandwidth_matrix())),
            "window_ticks": float(len(window)),
            "refresh_us": refresh_s / calls * 1e6,
            "collect_us": collect_s / calls * 1e6,
        },
    )


# --------------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------------- #

#: Work sizes per mode: (queue ops, fused-op rounds, single-tick ticks,
#: scenario seconds, snapshot rounds, adaptation-round calls).
MODES = {
    "smoke": (20_000, 4_000, 120, 120.0, 30, 30),
    "full": (200_000, 40_000, 600, 600.0, 200, 200),
}


def run_all(mode: str = "full") -> list[BenchResult]:
    """Run every benchmark at the given mode's work sizes."""
    try:
        ops, fused_rounds, ticks, duration_s, rounds, calls = MODES[mode]
    except KeyError:
        raise ValueError(
            f"unknown mode {mode!r}; choose from {sorted(MODES)}"
        ) from None
    return [
        bench_queue_ops(ops),
        bench_queue_fused_ops(fused_rounds),
        bench_single_tick(ticks),
        bench_full_scenario(duration_s),
        bench_snapshot(rounds),
        bench_adaptation_round(calls),
    ]
