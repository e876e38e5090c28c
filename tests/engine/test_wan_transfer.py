"""One tick's in-place moves: the WAN pass against its composition, and
the single-target row pop against the previous tick.

The engine tick moves each WAN flow in place: it pops the flow queue FIFO
up to the link's remaining byte budget and pushes each parcel, aged by the
link latency, into the destination stage's input queue.  This test fills
the flow and destination queues of two runtimes, takes a copy-on-write
snapshot of each (so every queue shares its storage), ticks them with one
``link_budget`` dict, and requires every queue to end bit for bit as
``push_parcels(dst, age_parcels(pop(flow, n), latency))`` applied flow by
flow in the tick's order, with ``n`` the budget left on the link.  Nothing
else moves: the sources generate nothing and the destination stage is
suspended.

The queues are set up so the pass splits a head parcel, ages one parcel
to just inside the 1e-6 merge window of the destination's tail and
another to just outside it, and leaves the second runtime a partly spent
budget on a link the first runtime used.

The row test backlogs the rows of a stage with one target each (a
co-located input queue and a flow queue) beyond their capacity, with the
same snapshot taken first, and compares the tick with the previous tick
(:class:`~tests.engine.column_routing.ColumnRoutingRuntime`).
"""

from __future__ import annotations

from collections import deque

from repro.config import WaspConfig
from repro.engine.logical import LogicalPlan
from repro.engine.operators import sink, source, window_aggregate
from repro.engine.physical import PhysicalPlan
from repro.engine.queues import FluidQueue
from repro.engine.runtime import MBIT_BYTES, TICK_S, EngineRuntime
from repro.network.site import Site, SiteKind
from repro.network.topology import Topology

from .column_routing import ColumnRoutingRuntime
from .parcels import age_parcels, pop, push_parcels
from .test_runtime import ConstantWorkload

#: Offsets just inside and just outside the 1e-6 merge window; exact in
#: binary, so ``(tail + latency + offset) - latency == tail + offset``.
INSIDE = 2.0**-20
OUTSIDE = 2.0**-20 + 2.0**-24
EVENT_BYTES = 100.0

#: Per link: (bandwidth in Mbps, latency in ms; 500 and 250 age exactly).
LINKS = {
    ("edge-a", "dc-1"): (0.04, 500.0),
    ("edge-a", "dc-2"): (0.024, 250.0),
}

#: Per runtime: the parcels of each flow queue and destination input queue.
FIRST = {
    ("src1", "agg", "edge-a", "dc-1"): [
        (20.0, 10.5 + INSIDE), (25.0, 11.5), (15.0, 12.5),
    ],
    ("src1", "agg", "edge-a", "dc-2"): [(12.0, 10.25 + OUTSIDE), (7.0, 11.25)],
    ("src2", "agg", "edge-a", "dc-1"): [(8.0, 12.5), (9.0, 13.5)],
    ("agg", "dc-1"): [(4.0, 9.0), (6.0, 10.0)],
    ("agg", "dc-2"): [(3.0, 10.0)],
}
SECOND = {
    ("src1", "agg", "edge-a", "dc-2"): [(6.0, 20.25), (9.0, 21.25 + INSIDE)],
    ("src2", "agg", "edge-a", "dc-1"): [(5.0, 20.5)],
    ("agg", "dc-2"): [(2.0, 19.0)],
}


#: ``agg``'s rows, backlogged beyond their capacity, and their targets:
#: the sink's input queue at dc-1 (whose tail the first parcel popped at
#: dc-1 merges into) and the flow from dc-2.
ROWS = {
    ("agg", "dc-1"): [(3000.0, 1.0), (4000.0, 2.0), (2500.0, 3.0)],
    ("agg", "dc-2"): [(9000.0, 1.5), (8000.0, 2.5)],
    ("out", "dc-1"): [(5.0, 1.0 + INSIDE)],
    ("agg", "out", "dc-2", "dc-1"): [(4.0, 0.5)],
}


def build_runtime(
    contents, cls=EngineRuntime, *, suspend_agg: bool = True
) -> EngineRuntime:
    """Sources ``src1`` and ``src2`` at edge-a feed ``agg`` at dc-1 and
    dc-2 over the WAN, ``agg`` feeds the sink at dc-1; the queues hold
    ``contents`` and the sources generate nothing."""
    topology = Topology([
        Site("edge-a", SiteKind.EDGE, 4),
        Site("dc-1", SiteKind.DATA_CENTER, 8, proc_rate_eps=4000.0),
        Site("dc-2", SiteKind.DATA_CENTER, 8, proc_rate_eps=4000.0),
    ])
    for (a, b), (bandwidth, latency) in LINKS.items():
        topology.set_link(a, b, bandwidth, latency)
    topology.set_link("dc-2", "dc-1", 100.0, 10.0)
    ops = [
        source("src1", "edge-a", event_bytes=EVENT_BYTES),
        source("src2", "edge-a", event_bytes=EVENT_BYTES),
        window_aggregate("agg", window_s=10, selectivity=0.5, state_mb=1),
        sink("out"),
    ]
    edges = [("src1", "agg"), ("src2", "agg"), ("agg", "out")]
    plan = PhysicalPlan(LogicalPlan.from_edges("wan", ops, edges))
    plan.stage("src1").add_task("edge-a")
    plan.stage("src2").add_task("edge-a")
    plan.stage("agg").add_task("dc-1")
    plan.stage("agg").add_task("dc-2")
    plan.stage("out").add_task("dc-1")
    runtime = cls(
        topology, plan, ConstantWorkload({"src1": 0.0, "src2": 0.0}),
        WaspConfig.paper_defaults(),
    )
    for key, parcels in contents.items():
        if len(key) == 4:
            queue = runtime._net_q(key)
        else:
            queue = runtime._input_queue[key] = FluidQueue()
        for count, gen in parcels:
            queue.push(count, gen)
    if suspend_agg:
        runtime.suspend_stage("agg", 1e9)
    return runtime


def snapshot_states(runtime: EngineRuntime):
    """A copy-on-write snapshot of every queue, and each clone's state."""
    snapshot = runtime.mutation_snapshot()
    clones = [
        (queue, state(queue))
        for table in (snapshot.net_queue, snapshot.input_queue)
        for queue in table.values()
    ]
    assert all(queue._shared for queue, _ in clones)
    return clones


def state(queue: FluidQueue) -> str:
    """Counts, generation times and total, exactly."""
    return repr((list(queue._counts), list(queue._gens), queue._count))


def copy_of(queue: FluidQueue) -> FluidQueue:
    copy = FluidQueue()
    copy._counts = deque(queue._counts)
    copy._gens = deque(queue._gens)
    copy._count = queue._count
    return copy


def expected_pass(runtime: EngineRuntime, link_budget: dict):
    """The WAN pass composed flow by flow: returns the expected flow and
    input queues and ``net_sent``, and spends ``link_budget``."""
    flows = {key: copy_of(q) for key, q in runtime._net_queue.items()}
    inputs = {key: copy_of(q) for key, q in runtime._input_queue.items()}
    topology = runtime.topology
    dt = TICK_S
    sent = {}
    for stage in runtime.plan.topological_stages():
        for key in sorted(k for k in flows if k[0] == stage.name):
            flow = flows[key]
            if not flow.count > 1e-12:
                continue
            _, dst_stage, src_site, dst_site = key
            link = (src_site, dst_site)
            budget = link_budget.get(link)
            if budget is None:
                budget = link_budget[link] = (
                    topology.bandwidth_mbps(*link) * MBIT_BYTES * dt
                )
            if not budget / EVENT_BYTES > 0:
                continue
            latency_s = topology.latency_ms(*link) / 1000.0
            popped = pop(flow, budget / EVENT_BYTES)
            moved = 0.0
            for parcel in popped:
                moved += parcel.count
            if moved <= 0:
                continue
            dst = inputs.setdefault((dst_stage, dst_site), FluidQueue())
            push_parcels(dst, age_parcels(popped, latency_s))
            link_budget[link] = budget - moved * EVENT_BYTES
            sent[key] = moved
    return flows, inputs, sent


def test_wan_pass_matches_pop_age_push_flow_by_flow():
    runtimes = [build_runtime(FIRST), build_runtime(SECOND)]
    link_budget: dict = {}
    expected_budget: dict = {}
    left_for_second: dict = {}
    for runtime in runtimes:
        if runtime is runtimes[1]:
            left_for_second.update(expected_budget)
        flows, inputs, sent = expected_pass(runtime, expected_budget)
        shared = snapshot_states(runtime)

        report = runtime.tick(link_budget)

        assert list(report.net_sent.items()) == list(sent.items())
        for key, queue in runtime._net_queue.items():
            assert state(queue) == state(flows[key]), key
        for key, queue in inputs.items():
            assert state(runtime._input_queue[key]) == state(queue), key
        # The snapshot's copy-on-write clones never see the pass.
        for queue, before in shared:
            assert state(queue) == before
        assert repr(link_budget) == repr(expected_budget)

    first, second = runtimes
    # A head was split: the rest of (15.0, 12.5) stays queued.
    split = first._net_queue[("src1", "agg", "edge-a", "dc-1")]
    assert list(split._gens) == [12.5] and 0.0 < split._counts[0] < 15.0
    # Aged to just inside the window, (20.0, 10.5 + INSIDE) merged into
    # the destination's tail at 10.0; just outside, (12.0, ...) did not.
    assert list(first._input_queue[("agg", "dc-1")]._gens) == [
        9.0, 10.0, 11.0, 12.0,
    ]
    assert list(first._input_queue[("agg", "dc-2")]._gens) == [
        10.0, 10.0 + OUTSIDE, 11.0,
    ]
    # The second runtime started from what the first left on the link.
    dc2 = ("edge-a", "dc-2")
    full = second.topology.bandwidth_mbps(*dc2) * MBIT_BYTES
    assert 0.0 < left_for_second[dc2] < full
    moved = second.last_report.net_sent[("src1", "agg", "edge-a", "dc-2")]
    assert moved * EVENT_BYTES == left_for_second[dc2]


def test_single_target_rows_match_the_previous_tick():
    routed = build_runtime(ROWS, suspend_agg=False)
    oracle = build_runtime(ROWS, ColumnRoutingRuntime, suspend_agg=False)
    agg = next(ex for ex in routed._plan_cache().topo if ex.name == "agg")
    for _, site, n_tasks, key, _ in agg.site_rows:
        # Each row pops part of its queue and splits a head.
        capacity = n_tasks * site.effective_proc_rate_eps / agg.cost
        assert 0.0 < capacity < routed._input_queue[key].count / 3, key
    for tick in range(3):
        shared = snapshot_states(routed)
        report = routed.tick()
        expected = oracle.tick()
        assert repr(report) == repr(expected), tick
        for table in ("_input_queue", "_net_queue"):
            ours, theirs = getattr(routed, table), getattr(oracle, table)
            assert list(ours) == list(theirs), tick
            for key, queue in ours.items():
                assert state(queue) == state(theirs[key]), (tick, key)
        for queue, before in shared:
            assert state(queue) == before, tick
    # One target per row: the sink's input queue and the flow to it.
    assert sorted(len(targets) for targets in agg.routes.values()) == [1, 1]
