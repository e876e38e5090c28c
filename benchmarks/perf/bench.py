"""The microbenchmarks themselves (all seeded, all deterministic).

Timing uses :func:`time.perf_counter` around fixed amounts of *work* (a
fixed op count or a fixed simulated duration), so results are comparable
across commits; only the wall time varies.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

from repro.engine.queues import FluidQueue
from repro.engine.runtime import TICK_S, EngineRuntime
from repro.experiments.scenarios import bottleneck_dynamics, launch

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
    (merging adjacent parcels), fractional pops, and occasional SLO drops
    (``drop_older_than``) - the three moves ``EngineRuntime.tick`` makes
    on every stage's queues.
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
            queue.pop_scaled_into(150.0, 1.0, counts, gens)
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
    """The fused FluidQueue ops the engine calls.

    The tick runs its single-target row pops and WAN transfers in place
    (``single_tick`` and ``full_scenario`` time those); what stays a queue
    call is timed here.  Each round a donor pops a burst and routes it to
    two targets, a flow queue and a co-located queue (``pop_routed`` with
    several targets), and the mutation API's move drains the flow into a
    receiver (``drain_into``); then periodic SLO maintenance
    (``drop_older_than``) and snapshot pressure (``clone_cow`` followed by
    a mutation, so copy-on-write actually pays its materialization).
    """
    donor = FluidQueue()
    flow = FluidQueue()
    local = FluidQueue()
    receiver = FluidQueue()
    now = 0.0
    for i in range(64):
        now += 0.5
        donor.push(200.0 + (i % 5), now)
    targets = [(flow, 0.5), (local, 0.5)]
    t0 = time.perf_counter()
    for i in range(rounds):
        now += 0.25
        donor.push(120.0 + (i % 3), now)
        donor.pop_routed(110.0, 1.0, targets)
        flow.drain_into(receiver)
        if i % 32 == 31:
            receiver.drop_older_than(now - 8.0)
            local.drop_older_than(now - 8.0)
        if i % 256 == 255:
            receiver.clone_cow()
            receiver.push(1.0, now)  # force the copy-on-write to pay
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


def _queue_stats(runtime: EngineRuntime) -> tuple[float, int]:
    """(total queued events, total parcel objects) across all queue tables."""
    events = 0.0
    parcels = 0
    for table in (runtime._input_queue, runtime._net_queue):
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
    run = launch("topk-topics", seed=BENCH_SEED)
    run.set_dynamics(bottleneck_dynamics())
    runtime = run.runtime
    dt = TICK_S
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
    run = launch("topk-topics", seed=BENCH_SEED)
    ticks = int(duration_s / TICK_S)
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
            "total_processed": sum(s.processed for s in recorder.samples),
            "adaptations": float(len(recorder.adaptations)),
        },
    )


# --------------------------------------------------------------------------- #
# Snapshot cost (transactional adaptation)
# --------------------------------------------------------------------------- #


def bench_snapshot(rounds: int = 200, warm_ticks: int = 350) -> BenchResult:
    """mutation_snapshot + restore cycles on a loaded runtime.

    The runtime first ticks through the Fig-8 workload surge so the queue
    tables are populated; each round then snapshots, pushes into one queue
    (so copy-on-write implementations cannot skip all work), and restores.
    """
    run = launch("topk-topics", seed=BENCH_SEED)
    run.set_dynamics(bottleneck_dynamics())
    dt = TICK_S
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
        runtime._input_queue[key].push(1.0, runtime.now_s)
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
    round at ``warm_s``, so the engine's window sums hold a full window.
    Each call then times ``WanMonitor.refresh`` over every link and a real
    window-boundary ``GlobalMetricMonitor.collect`` of that window.  Since
    ``collect`` resets the window, each call collects from a deep copy of
    the monitor (its sums and first and last reports) taken outside the
    timed region.  The per-tick additions into the sums are part of the
    engine tick, not of this figure.
    """
    run = launch("topk-topics", seed=BENCH_SEED)
    run.set_dynamics(bottleneck_dynamics())
    dt = TICK_S
    for _ in range(int(round(warm_s / dt)) - 1):
        run.step()
    manager = run.manager
    wan = manager.wan_monitor
    metrics = manager.monitor
    refresh_s = collect_s = 0.0
    for _ in range(calls):
        t0 = time.perf_counter()
        wan.refresh()
        t1 = time.perf_counter()
        monitor = copy.deepcopy(metrics)
        t2 = time.perf_counter()
        monitor.collect()
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
            "links": float(len(wan._bandwidth)),
            "window_ticks": float(metrics._ticks),
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
