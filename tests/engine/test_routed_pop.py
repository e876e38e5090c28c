"""Queue-to-queue routing against the column path it replaced.

Every non-sink site row pops its input straight into its routing targets
(:meth:`FluidQueue.pop_routed`).  These tests tick the production runtime
next to :class:`~tests.engine.column_routing.ColumnRoutingRuntime`, which
pops each row into column lists and pushes them target by target, and
require every :class:`TickReport`, every queue and the order in which the
queue tables gained their entries to agree bit for bit after every tick.

The scripted run covers what the route cache has to survive: rows with
several targets (a stage with two downstream stages, one of them spread
over three sites), a downstream stage that is briefly undeployed (its
upstream held back), a snapshot restored mid-run, and a task move followed
by :meth:`EngineRuntime.rehome_to_placement`.  Two fuzz scenarios add the
controller's own rollbacks, re-plans and re-homings.

The same world, with ``agg2`` undeployed for a while, checks the hold-back
itself on both backends: a stage with a downstream stage that has no task
pops nothing, and its input waits at the sender.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

import repro.engine.dense as dense_module
from repro.engine.dense import DenseEngineRuntime
from repro.engine.logical import LogicalPlan
from repro.engine.operators import sink, source, window_aggregate
from repro.engine.physical import PhysicalPlan
from repro.engine.runtime import TICK_S, EngineRuntime, TickReport
from repro.fuzz import build_run, generate_scenario
from repro.network.site import Site, SiteKind
from repro.network.topology import Topology

from .column_routing import ColumnRoutingRuntime
from .test_runtime import ConstantWorkload

REPORT_FIELDS = [f.name for f in dataclasses.fields(TickReport)]


def report_state(report: TickReport) -> str:
    """Every report field, mappings in their insertion order."""
    values = []
    for name in REPORT_FIELDS:
        value = getattr(report, name)
        if hasattr(value, "items"):
            value = list(value.items())
        values.append((name, value))
    return repr(values)


def queue_state(runtime: EngineRuntime) -> str:
    """Each queue table's key order, then every queue's parcels and total."""
    tables = [
        list(runtime._input_queue),
        list(runtime._net_queue),
    ]
    queues = [
        (table, key, list(q._counts), list(q._gens), q._count)
        for table, key, q in runtime.iter_queues()
    ]
    return repr((tables, queues))


def window_state(sums) -> str:
    return repr([
        sums.offered, sums.sink_events, sums.delay_weight,
        [(k, c.value) for k, c in sums.source_gen.items()],
        [(k, c.value) for k, c in sums.processed.items()],
        [
            (k, [(s, c.value) for s, c in by_site.items()])
            for k, by_site in sums.capacity.items()
        ],
        [(k, c.value) for k, c in sums.net_in.items()],
    ])


def make_topology() -> Topology:
    names = ["edge-a", "edge-b", "dc-1", "dc-2"]
    topology = Topology([
        Site("edge-a", SiteKind.EDGE, 4, proc_rate_eps=1500.0),
        Site("edge-b", SiteKind.EDGE, 4, proc_rate_eps=1500.0),
        Site("dc-1", SiteKind.DATA_CENTER, 8, proc_rate_eps=900.0),
        Site("dc-2", SiteKind.DATA_CENTER, 8, proc_rate_eps=1100.0),
    ])
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if a != b:
                topology.set_link(a, b, 0.4 + 0.15 * (i + 2 * j), 20.0 + 7 * i)
    return topology


def build_runtime(cls, degrade_slo_s):
    """Two pinned sources; ``src1`` feeds both ``agg`` (on three sites,
    one of them its own) and ``agg2``; both aggregates feed one sink."""
    ops = [
        source("src1", "edge-a", event_bytes=120.0),
        source("src2", "edge-b", event_bytes=150.0),
        window_aggregate("agg", window_s=10, selectivity=0.7, state_mb=1,
                         cost=1.3),
        window_aggregate("agg2", window_s=10, selectivity=0.35, state_mb=1,
                         cost=0.9),
        sink("out"),
    ]
    edges = [
        ("src1", "agg"), ("src2", "agg"), ("src1", "agg2"),
        ("agg", "out"), ("agg2", "out"),
    ]
    plan = PhysicalPlan(LogicalPlan.from_edges("routing", ops, edges))
    plan.stage("src1").add_task("edge-a")
    plan.stage("src2").add_task("edge-b")
    for site in ("edge-a", "dc-1", "dc-1", "dc-2"):
        plan.stage("agg").add_task(site)
    plan.stage("agg2").add_task("dc-2")
    plan.stage("out").add_task("dc-1")
    workload = ConstantWorkload({"src1": 2300.0, "src2": 1700.0})
    return cls(
        make_topology(), plan, workload, degrade_slo_s=degrade_slo_s
    )


def script(runtime: EngineRuntime, tick: int, snapshots: dict) -> None:
    """The mid-run mutations, applied before tick ``tick``."""
    plan = runtime.plan
    if tick == 12:
        snapshots["before-scale"] = runtime.mutation_snapshot()
    elif tick == 15:
        plan.stage("agg").add_task("dc-2")
    elif tick == 19:
        runtime.restore_mutation_snapshot(snapshots["before-scale"])
    elif tick == 24:
        plan.stage("agg2").clear_tasks()
    elif tick == 28:
        # Suspended rows pop nothing, so their new targets (a flow and the
        # sink's input queue at edge-b) wait until they do.
        plan.stage("agg2").add_task("dc-1")
        plan.stage("agg2").add_task("edge-b")
        plan.stage("out").add_task("edge-b")
        runtime.suspend_stage("agg2", runtime.now_s + 2.0)
    elif tick == 33:
        plan.stage("agg").remove_task_at("edge-a")
        plan.stage("agg").add_task("dc-2")
        runtime.rehome_to_placement("agg", runtime.topology.bandwidth_mbps)
    elif tick == 37:
        runtime.suspend_stage("agg", runtime.now_s + 3.0)
    elif tick == 43:
        plan.stage("agg").add_task("edge-a")
        snapshots["late"] = runtime.mutation_snapshot()
    elif tick == 47:
        runtime.restore_mutation_snapshot(snapshots["late"])


@pytest.mark.parametrize("degrade_slo_s", [None, 4.0])
def test_scripted_run_matches_column_routing(degrade_slo_s):
    routed = build_runtime(EngineRuntime, degrade_slo_s)
    oracle = build_runtime(ColumnRoutingRuntime, degrade_slo_s)
    windows = (routed.bind_window(), oracle.bind_window())
    snapshots: tuple[dict, dict] = ({}, {})
    held = multi_target = 0
    for tick in range(60):
        for runtime, saved in zip((routed, oracle), snapshots):
            script(runtime, tick, saved)
        report = routed.tick()
        expected = oracle.tick()
        assert report_state(report) == report_state(expected), tick
        assert queue_state(routed) == queue_state(oracle), tick
        assert window_state(windows[0]) == window_state(windows[1]), tick
        if tick % 10 == 9:
            for sums in windows:
                sums.reset()
        held += not routed.plan.stage("agg2").tasks
        multi_target += any(
            len(targets) > 2
            for ex in routed._exec_cache.topo
            for targets in ex.routes.values()
        )
    # The run exercised what it is meant to.
    assert held >= 3
    assert multi_target >= 40


@pytest.mark.parametrize("seed", [19, 59])
def test_fuzz_runs_match_column_routing(seed, monkeypatch):
    """Fuzz seed 19 rolls back an adaptation (a snapshot restore) on a
    world with multi-target rows; seed 59 re-plans and re-homes queues."""
    spec = generate_scenario(seed)
    calls = {"restore_mutation_snapshot": 0, "rehome_to_placement": 0}

    def counting(name):
        method = getattr(EngineRuntime, name)

        def counted(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)

        return counted

    def reports(runtime_cls):
        monkeypatch.setattr(dense_module, "EngineRuntime", runtime_cls)
        run, dynamics = build_run(spec)
        assert type(run.runtime) is runtime_cls
        if dynamics is not None:
            run.set_dynamics(dynamics)
        states = []
        for _ in range(math.ceil(spec.duration_s / TICK_S)):
            run.step()
            states.append(report_state(run.runtime.last_report))
        return states, queue_state(run.runtime)

    expected = reports(ColumnRoutingRuntime)
    for name in calls:
        monkeypatch.setattr(EngineRuntime, name, counting(name))
    assert reports(EngineRuntime) == expected
    assert calls["restore_mutation_snapshot" if seed == 19
                 else "rehome_to_placement"] > 0


def test_snapshot_before_every_tick_stays_unchanged():
    """With dc-1 slowed down, ``agg``'s row there (one target, the sink's
    co-located input queue) and the flows into dc-1 stay backlogged.  A
    copy-on-write snapshot taken before every tick shares every queue's
    storage, so the tick has to materialize each queue it pops or pushes:
    the snapshot never changes, and the runtime still matches the oracle."""
    routed = build_runtime(EngineRuntime, None)
    oracle = build_runtime(ColumnRoutingRuntime, None)
    for runtime in (routed, oracle):
        runtime.topology.site("dc-1").set_slowdown(8.0)
    single_target_backlog = 0
    for tick in range(30):
        snapshot = routed.mutation_snapshot()
        before = queue_state(snapshot_runtime(snapshot))
        report = routed.tick()
        expected = oracle.tick()
        assert queue_state(snapshot_runtime(snapshot)) == before, tick
        assert report_state(report) == report_state(expected), tick
        assert queue_state(routed) == queue_state(oracle), tick
        agg = next(ex for ex in routed._exec_cache.topo if ex.name == "agg")
        single_target_backlog += (
            routed._input_queue[("agg", "dc-1")].count > 0
            and len(agg.routes.get("dc-1", ())) == 1
        )
    assert single_target_backlog >= 20


def snapshot_runtime(snapshot) -> EngineRuntime:
    """An object :func:`queue_state` reads the snapshot's queues from."""
    view = EngineRuntime.__new__(EngineRuntime)
    view._input_queue = snapshot.input_queue
    view._net_queue = snapshot.net_queue
    return view


def stage_pending(runtime: EngineRuntime) -> dict[str, float]:
    """Events waiting per stage: in its input queues, and in the flow
    queues bound for it."""
    pending: dict[str, float] = {}
    for table, key, queue in runtime.iter_queues():
        stage = key[1] if table == "net" else key[0]
        pending[stage] = pending.get(stage, 0.0) + queue.count
    return pending


def assert_ledgers_balance(runtime, report, before, after) -> None:
    """Per stage, the backlog moved by exactly what the tick offered and
    routed to it minus what the stage processed (no SLO, so no drops)."""
    plan = runtime.plan
    inflow = dict(report.offered_by_source)
    for name, emitted in report.emitted.items():
        for down in plan.downstream_stages(name):
            inflow[down.name] = inflow.get(down.name, 0.0) + emitted
    for name in plan.stages:
        expected = (
            before.get(name, 0.0)
            + inflow.get(name, 0.0)
            - report.processed.get(name, 0.0)
        )
        assert after.get(name, 0.0) == pytest.approx(
            expected, rel=1e-9, abs=1e-6
        ), name


def test_undeployed_downstream_holds_the_sender_back():
    """While ``agg2`` has no task, ``src1`` (feeding ``agg`` and ``agg2``)
    processes nothing: what it is offered waits in its own queue, ``agg``
    receives no second copy of it, and every stage's ledger balances.  The
    reference and dense backends agree tick by tick."""
    runtimes = [
        build_runtime(cls, None) for cls in (EngineRuntime, DenseEngineRuntime)
    ]
    pending = [stage_pending(runtime) for runtime in runtimes]
    offered = processed = 0.0
    held_ticks = 0
    for tick in range(40):
        for runtime in runtimes:
            if tick == 10:
                runtime.plan.stage("agg2").clear_tasks()
            elif tick == 20:
                runtime.plan.stage("agg2").add_task("dc-2")
        reports = [runtime.tick() for runtime in runtimes]
        for i, (runtime, report) in enumerate(zip(runtimes, reports)):
            after = stage_pending(runtime)
            assert_ledgers_balance(runtime, report, pending[i], after)
            pending[i] = after
        ref, dense = reports
        # The dense backend writes stages in depth-group order.
        assert dense.processed.keys() == ref.processed.keys(), tick
        for name, events in ref.processed.items():
            assert dense.processed[name] == pytest.approx(events, rel=1e-9)
        assert dense.input_backlog.keys() == ref.input_backlog.keys(), tick
        for key, backlog in ref.input_backlog.items():
            assert dense.input_backlog[key] == pytest.approx(backlog, rel=1e-9)
        offered += ref.offered_by_source["src1"]
        processed += ref.processed.get("src1", 0.0)
        if 10 <= tick < 20:
            held_ticks += 1
            assert "src1" not in ref.processed, tick
            assert "src1" not in ref.emitted, tick
            assert ref.input_backlog[("src1", "edge-a")] == pytest.approx(
                offered - processed, rel=1e-12
            ), tick
        # Nothing src1 emits is a copy of what it emitted before.
        assert processed <= offered * (1 + 1e-12), tick
    assert held_ticks == 10
    # Redeployed, agg2 lets src1 drain what it held.
    assert pending[0].get("src1", 0.0) < ref.offered_by_source["src1"]
