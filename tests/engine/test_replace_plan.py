"""Tests for EngineRuntime.replace_plan - re-planning at the engine level."""

import pytest

from repro.engine.logical import LogicalPlan
from repro.engine.operators import filter_, sink, source, union, window_aggregate
from repro.engine.physical import PhysicalPlan
from repro.engine.runtime import EngineRuntime
from tests.engine.backlog import input_backlog, net_backlog_for
from tests.engine.test_runtime import ConstantWorkload, mbps_to_eps


def variant(name, *, via_relay: bool, agg_cost: float = 2.0):
    """a, b -> (optional relay union) -> final aggregate -> sink."""
    ops = [
        source("a", "edge-x", event_bytes=200),
        source("b", "dc-2", event_bytes=200),
        filter_("fa", selectivity=0.5, event_bytes=100),
        filter_("fb", selectivity=0.5, event_bytes=100),
        window_aggregate("agg", window_s=10, selectivity=0.01, state_mb=5,
                         cost=agg_cost),
        sink("out"),
    ]
    edges = [("a", "fa"), ("b", "fb")]
    if via_relay:
        ops.append(union("relay", event_bytes=100))
        edges += [("fa", "relay"), ("fb", "relay"), ("relay", "agg")]
    else:
        edges += [("fa", "agg"), ("fb", "agg")]
    edges.append(("agg", "out"))
    return LogicalPlan.from_edges(name, ops, edges)


def deploy(logical, assignments):
    plan = PhysicalPlan(logical)
    for stage_name, sites in assignments.items():
        for site in sites:
            plan.stage(stage_name).add_task(site)
    return plan


@pytest.fixture
def runtime(small_topology):
    plan = deploy(
        variant("direct", via_relay=False),
        {"a": ["edge-x"], "b": ["dc-2"], "agg": ["dc-1"], "out": ["dc-1"]},
    )
    return EngineRuntime(
        small_topology, plan,
        ConstantWorkload({"a": 1000.0, "b": 1000.0}),
    )


class TestPlanSwap:
    def new_plan(self):
        return deploy(
            variant("relayed", via_relay=True),
            {
                "a": ["edge-x"], "b": ["dc-2"], "relay": ["dc-1"],
                "agg": ["dc-1"], "out": ["dc-1"],
            },
        )

    def test_swaps_logical_plan(self, runtime):
        runtime.replace_plan(self.new_plan())
        assert runtime.plan.logical.name == "relayed"

    def test_flow_continues_after_swap(self, runtime):
        for _ in range(10):
            runtime.tick()
        runtime.replace_plan(self.new_plan())
        for _ in range(20):
            report = runtime.tick()
        # 2 sources * 1000 * 0.5 * 0.01 = 10 events/s at the sink.
        assert report.sink_events == pytest.approx(10.0, rel=0.05)

    def test_surviving_stage_keeps_queue(self, small_topology):
        # Build a backlogged agg (compute-bound, co-located with its
        # source), then swap to the relayed plan: the agg stage survives by
        # name and keeps its queued input.
        plan = deploy(
            variant("direct", via_relay=False, agg_cost=20.0),
            {"a": ["edge-x"], "b": ["dc-2"], "agg": ["edge-x"],
             "out": ["edge-x"]},
        )
        runtime = EngineRuntime(
            small_topology, plan,
            ConstantWorkload({"a": 20_000.0, "b": 0.0}),
        )
        for _ in range(10):
            runtime.tick()
        queued_before = input_backlog(runtime, "agg")
        assert queued_before > 0
        new_plan = deploy(
            variant("relayed", via_relay=True, agg_cost=20.0),
            {
                "a": ["edge-x"], "b": ["dc-2"], "relay": ["edge-x"],
                "agg": ["edge-x"], "out": ["edge-x"],
            },
        )
        runtime.replace_plan(new_plan)
        assert input_backlog(runtime, "agg") == pytest.approx(queued_before)

    def test_net_queues_rebind_to_new_downstream(self, small_topology):
        """In-flight traffic from a surviving source re-binds to the new
        consumer when the old edge disappears."""
        plan = deploy(
            variant("direct", via_relay=False),
            {"a": ["edge-x"], "b": ["dc-2"], "agg": ["dc-1"],
             "out": ["dc-1"]},
        )
        rate = mbps_to_eps(10.0, 100.0) * 4
        runtime = EngineRuntime(
            small_topology, plan,
            ConstantWorkload({"a": rate, "b": 0.0}),
        )
        for _ in range(10):
            runtime.tick()
        assert net_backlog_for(runtime, "agg")
        runtime.replace_plan(self.new_plan())
        # The a -> agg edge no longer exists; the queue now feeds the relay.
        assert net_backlog_for(runtime, "relay")
        assert not net_backlog_for(runtime, "agg")

    def test_conversion_constants_refresh(self, runtime):
        for _ in range(5):
            runtime.tick()
        before = runtime.sink_source_equiv(1.0)
        runtime.replace_plan(self.new_plan())
        after = runtime.sink_source_equiv(1.0)
        # Same plan selectivity (the relay is a pure union): conversion is
        # stable across the swap.
        assert after == pytest.approx(before)

    def test_mass_conserved_across_swap(self, small_topology):
        plan = deploy(
            variant("direct", via_relay=False),
            {"a": ["edge-x"], "b": ["dc-2"], "agg": ["dc-1"],
             "out": ["dc-1"]},
        )
        rate = mbps_to_eps(10.0, 100.0) * 4
        runtime = EngineRuntime(
            small_topology, plan,
            ConstantWorkload({"a": rate, "b": 0.0}),
        )
        for _ in range(10):
            runtime.tick()
        backlog_before = runtime.total_backlog()
        runtime.replace_plan(self.new_plan())
        assert runtime.total_backlog() == pytest.approx(
            backlog_before, rel=1e-9
        )
