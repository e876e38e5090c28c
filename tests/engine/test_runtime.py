"""Tests for repro.engine.runtime - the fluid-flow engine."""

import math

import pytest

from repro.engine.logical import LogicalPlan
from repro.engine.operators import (
    filter_,
    sink,
    source,
    window_aggregate,
)
from repro.engine.dense import DenseEngineRuntime
from repro.engine.physical import PhysicalPlan
from repro.engine.runtime import (
    MBIT_BYTES, EngineRuntime, WorkloadModel, best_connected,
)

from .backlog import input_backlog, net_backlog_for


def mbps_to_eps(bandwidth_mbps: float, event_bytes: float) -> float:
    """Events/second a link sustains at the given event size."""
    return bandwidth_mbps * MBIT_BYTES / event_bytes


class ConstantWorkload(WorkloadModel):
    def __init__(self, rates):
        self.rates = dict(rates)
        self.base_rate_eps = self.rates.get  # duck-typed weighting hook

    def generation_eps(self, source_stage, t_s):
        return self.rates.get(source_stage, 0.0)


def build_pipeline(topology, *, rate=1000.0, selectivity=0.5,
                   agg_site="dc-1", event_bytes=100.0, degrade_slo=None,
                   agg_cost=1.0, runtime_cls=EngineRuntime):
    """source(edge-x)+filter -> agg(dc-1) -> sink(dc-1)."""
    ops = [
        source("src", "edge-x", event_bytes=200.0),
        filter_("flt", selectivity=selectivity, event_bytes=event_bytes),
        window_aggregate("agg", window_s=10, selectivity=0.01, state_mb=5,
                         cost=agg_cost),
        sink("out"),
    ]
    logical = LogicalPlan.from_edges(
        "q", ops, [("src", "flt"), ("flt", "agg"), ("agg", "out")]
    )
    physical = PhysicalPlan(logical)
    physical.stage("src").add_task("edge-x")
    physical.stage("agg").add_task(agg_site)
    physical.stage("out").add_task(agg_site)
    runtime = runtime_cls(
        topology,
        physical,
        ConstantWorkload({"src": rate}),
        degrade_slo_s=degrade_slo,
    )
    return runtime


class TestHealthyFlow:
    def test_conservation_at_steady_state(self, small_topology):
        runtime = build_pipeline(small_topology)
        for _ in range(30):
            report = runtime.tick()
        # 1000 * 0.5 * 0.01 = 5 events/s at the sink.
        assert report.sink_events == pytest.approx(5.0, rel=0.01)
        assert runtime.total_backlog() < 1.0

    def test_delay_includes_link_latency(self, small_topology):
        runtime = build_pipeline(small_topology)
        for _ in range(10):
            report = runtime.tick()
        # 50 ms edge-x -> dc-1 plus the half-tick generation offset.
        assert 0.5 <= report.mean_sink_delay_s() <= 0.7

    def test_offered_tracks_workload(self, small_topology):
        runtime = build_pipeline(small_topology, rate=2500.0)
        report = runtime.tick()
        assert report.offered == pytest.approx(2500.0)
        assert report.offered_by_source["src"] == pytest.approx(2500.0)

    def test_sink_source_equivalents(self, small_topology):
        runtime = build_pipeline(small_topology)
        for _ in range(20):
            report = runtime.tick()
        equiv = runtime.sink_source_equiv(report.sink_events)
        assert equiv == pytest.approx(1000.0, rel=0.02)

    def test_no_sink_events_is_nan_delay(self, small_topology):
        runtime = build_pipeline(small_topology, rate=0.0)
        report = runtime.tick()
        assert math.isnan(report.mean_sink_delay_s())


class TestComputeBottleneck:
    def test_input_queue_grows_when_undersized(self, small_topology):
        # agg capacity: 40_000 / 20 = 2_000 eps < 2_500 eps arriving.
        runtime = build_pipeline(
            small_topology, rate=5000.0, agg_cost=20.0
        )
        for _ in range(30):
            report = runtime.tick()
        assert input_backlog(runtime, "agg") > 1000.0
        assert report.input_backlog[("agg", "dc-1")] > 1000.0

    def test_delay_grows_with_backlog(self, small_topology):
        runtime = build_pipeline(small_topology, rate=5000.0, agg_cost=20.0)
        for _ in range(10):
            early = runtime.tick().mean_sink_delay_s()
        for _ in range(50):
            late = runtime.tick().mean_sink_delay_s()
        assert late > early + 5.0


class TestNetworkBottleneck:
    def test_net_queue_grows_on_constrained_link(self, small_topology):
        # 10 Mbps at 100 B/event = 12_500 eps; offer 2x that post-filter.
        flow_eps = mbps_to_eps(10.0, 100.0)
        runtime = build_pipeline(small_topology, rate=flow_eps * 4)
        for _ in range(30):
            report = runtime.tick()
        key = ("src", "agg", "edge-x", "dc-1")
        assert report.net_backlog[key] > 1000.0

    def test_transfer_respects_link_budget(self, small_topology):
        flow_eps = mbps_to_eps(10.0, 100.0)
        runtime = build_pipeline(small_topology, rate=flow_eps * 4)
        for _ in range(10):
            report = runtime.tick()
        key = ("src", "agg", "edge-x", "dc-1")
        assert report.net_sent[key] == pytest.approx(flow_eps, rel=0.01)

    def test_local_flows_unconstrained(self, small_topology):
        """Co-located stages exchange data without WAN involvement."""
        runtime = build_pipeline(small_topology, rate=50_000.0,
                                 agg_site="edge-x")
        for _ in range(10):
            report = runtime.tick()
        assert not report.net_backlog


@pytest.mark.parametrize(
    "runtime_cls", [EngineRuntime, DenseEngineRuntime],
    ids=["reference", "dense"],
)
class TestLinkRedefinition:
    """``Topology.set_link`` on a live link takes effect on the next tick,
    even though both backends cache per-link budgets and latencies."""

    def test_new_capacity_applies_mid_run(self, small_topology, runtime_cls):
        flow_eps = mbps_to_eps(10.0, 100.0)
        runtime = build_pipeline(
            small_topology, rate=flow_eps * 4, runtime_cls=runtime_cls
        )
        key = ("src", "agg", "edge-x", "dc-1")
        for _ in range(10):
            report = runtime.tick()
        assert report.net_sent[key] == pytest.approx(flow_eps, rel=0.01)
        small_topology.set_link("edge-x", "dc-1", 5.0, 50.0)
        report = runtime.tick()
        assert report.net_sent[key] == pytest.approx(
            mbps_to_eps(5.0, 100.0), rel=0.01
        )

    def test_new_latency_applies_mid_run(self, small_topology, runtime_cls):
        runtime = build_pipeline(small_topology, runtime_cls=runtime_cls)
        for _ in range(10):
            before = runtime.tick().mean_sink_delay_s()
        small_topology.set_link("edge-x", "dc-1", 10.0, 1050.0)
        for _ in range(5):
            after = runtime.tick().mean_sink_delay_s()
        # One more second on the wire, and nothing else changed.
        assert after == pytest.approx(before + 1.0, abs=0.05)


class TestDegrade:
    def test_drops_late_events(self, small_topology):
        flow_eps = mbps_to_eps(10.0, 100.0)
        runtime = build_pipeline(
            small_topology, rate=flow_eps * 4, degrade_slo=10.0
        )
        total_dropped = 0.0
        for _ in range(60):
            total_dropped += runtime.tick().dropped_source_equiv
        assert total_dropped > 0.0

    def test_keeps_delay_within_slo(self, small_topology):
        flow_eps = mbps_to_eps(10.0, 100.0)
        runtime = build_pipeline(
            small_topology, rate=flow_eps * 4, degrade_slo=10.0
        )
        for _ in range(120):
            report = runtime.tick()
        assert report.mean_sink_delay_s() < 10.5

    def test_drop_accounting_in_source_equivalents(self, small_topology):
        flow_eps = mbps_to_eps(10.0, 100.0)
        rate = flow_eps * 4
        runtime = build_pipeline(small_topology, rate=rate, degrade_slo=10.0)
        dropped = 0.0
        offered = 0.0
        for _ in range(200):
            report = runtime.tick()
            dropped += report.dropped_source_equiv
            offered += report.offered
        # Post-filter the link passes flow_eps of 2*flow_eps: half the
        # surviving events must eventually drop, i.e. ~50% of source rate.
        assert dropped / offered == pytest.approx(0.5, abs=0.1)


class TestSuspension:
    def test_suspended_stage_does_not_process(self, small_topology):
        runtime = build_pipeline(small_topology)
        runtime.suspend_stage("agg", until_s=5.0)
        for _ in range(4):
            report = runtime.tick()
        assert report.processed.get("agg", 0.0) == 0.0
        assert input_backlog(runtime, "agg") > 0.0

    def test_resumes_after_transition(self, small_topology):
        runtime = build_pipeline(small_topology)
        runtime.suspend_stage("agg", until_s=5.0)
        for _ in range(30):
            report = runtime.tick()
        assert report.processed["agg"] > 0.0
        assert runtime.total_backlog() < 1.0

    def test_is_suspended(self, small_topology):
        runtime = build_pipeline(small_topology)
        runtime.suspend_stage("agg", until_s=5.0)
        assert runtime.is_suspended("agg")
        for _ in range(6):
            runtime.tick()
        assert not runtime.is_suspended("agg")

    def test_suspension_only_extends(self, small_topology):
        runtime = build_pipeline(small_topology)
        runtime.suspend_stage("agg", until_s=10.0)
        runtime.suspend_stage("agg", until_s=5.0)
        assert runtime.suspended_until("agg") == 10.0


class TestFailure:
    def test_failed_site_stops_processing(self, small_topology):
        runtime = build_pipeline(small_topology)
        for _ in range(5):
            runtime.tick()
        small_topology.site("dc-1").fail()
        for _ in range(5):
            report = runtime.tick()
        assert report.sink_events == 0.0

    def test_events_accumulate_during_failure(self, small_topology):
        runtime = build_pipeline(small_topology)
        small_topology.site("dc-1").fail()
        small_topology.site("edge-x").fail()
        for _ in range(10):
            runtime.tick()
        # External generation continues; everything queues at the source.
        assert runtime.total_backlog() == pytest.approx(10_000.0, rel=0.01)

    def test_recovery_drains_backlog(self, small_topology):
        runtime = build_pipeline(small_topology)
        small_topology.site("dc-1").fail()
        for _ in range(10):
            runtime.tick()
        small_topology.site("dc-1").recover()
        for _ in range(200):
            runtime.tick()
        assert runtime.total_backlog() < 10.0


class TestMutations:
    def test_move_task_queue(self, small_topology):
        runtime = build_pipeline(small_topology, rate=5000.0, agg_cost=20.0)
        for _ in range(10):
            runtime.tick()
        before = input_backlog(runtime, "agg", "dc-1")
        assert before > 0
        runtime.rehome("agg", "dc-1", "dc-2", relay=False)
        assert input_backlog(runtime, "agg", "dc-2") == pytest.approx(before)
        assert input_backlog(runtime, "agg", "dc-1") == 0.0
        assert not net_backlog_for(runtime, "agg")

    def test_redirect_flows(self, small_topology):
        flow_eps = mbps_to_eps(10.0, 100.0)
        runtime = build_pipeline(small_topology, rate=flow_eps * 4)
        for _ in range(10):
            runtime.tick()
        assert ("edge-x", "dc-1") in net_backlog_for(runtime, "agg")
        runtime.rehome("agg", "dc-1", "dc-2", relay=False)
        backlog = net_backlog_for(runtime, "agg")
        assert ("edge-x", "dc-2") in backlog
        assert ("edge-x", "dc-1") not in backlog

    def test_relay_queue_moves_via_wan(self, small_topology):
        runtime = build_pipeline(small_topology, rate=5000.0, agg_cost=20.0)
        for _ in range(10):
            runtime.tick()
        queued = input_backlog(runtime, "agg", "dc-1")
        assert queued > 0
        runtime.rehome("agg", "dc-1", "dc-2", relay=True)
        assert input_backlog(runtime, "agg", "dc-1") == 0.0
        assert input_backlog(runtime, "agg", "dc-2") == 0.0
        # The relayed events are in a WAN queue, not teleported.
        assert net_backlog_for(runtime, "agg")[("dc-1", "dc-2")] == (
            pytest.approx(queued)
        )

    @pytest.mark.parametrize("relay", [False, True])
    def test_rehome_keeps_the_drained_input_key(self, small_topology, relay):
        # The metric window sums each stage's backlog in input-table order,
        # so whether a drained key stays decides bits: it stays.
        runtime = build_pipeline(small_topology, rate=5000.0, agg_cost=20.0)
        for _ in range(10):
            runtime.tick()
        order = list(runtime._input_queue)
        runtime.rehome("agg", "dc-1", "dc-2", relay=relay)
        assert list(runtime._input_queue)[: len(order)] == order
        assert runtime._input_queue[("agg", "dc-1")].count == 0.0

    def test_rehome_relays_orphaned_input(self, small_topology):
        runtime = build_pipeline(small_topology, rate=5000.0, agg_cost=20.0)
        for _ in range(10):
            runtime.tick()
        queued = input_backlog(runtime, "agg", "dc-1")
        assert queued > 0
        stage = runtime.plan.stage("agg")
        stage.remove_task_at("dc-1")
        stage.add_task("dc-2")
        runtime.rehome_to_placement("agg", small_topology.bandwidth_mbps)
        # Unlike rehome, the re-plan sweep removes the vacated input key.
        assert ("agg", "dc-1") not in runtime._input_queue
        assert net_backlog_for(runtime, "agg")[("dc-1", "dc-2")] == (
            pytest.approx(queued)
        )

    @pytest.mark.parametrize("relay", [False, True])
    def test_dense_rehome_matches_reference(self, small_topology, relay):
        runtimes = [
            build_pipeline(
                small_topology, rate=60_000.0, agg_cost=20.0, runtime_cls=cls
            )
            for cls in (EngineRuntime, DenseEngineRuntime)
        ]
        for runtime in runtimes:
            for _ in range(10):
                runtime.tick()
            runtime.rehome("agg", "dc-1", "dc-2", relay=relay)
        ref, dense = (
            {(t, k): q.count for t, k, q in runtime.iter_queues()}
            for runtime in runtimes
        )
        assert ref.keys() == dense.keys()
        for key, count in ref.items():
            assert dense[key] == pytest.approx(count, rel=1e-9), key
        # The dense tick runs on after the mutation.
        assert runtimes[1].tick().t_s == 11.0

    def test_best_connected_breaks_ties_by_name(self):
        bandwidth = {("a", "c"): 5.0, ("a", "b"): 5.0, ("a", "d"): 1.0}

        def lookup(src, dst):
            return bandwidth[src, dst]

        assert best_connected({"d", "c", "b"}, "a", lookup) == "b"
        bandwidth[("a", "c")] = 6.0
        assert best_connected(["b", "c", "d"], "a", lookup) == "c"


class TestReplayInjection:
    def test_replay_enters_the_input_queue_with_original_age(
        self, small_topology
    ):
        runtime = build_pipeline(small_topology)
        for _ in range(5):
            runtime.tick()
        before = runtime.total_backlog()
        runtime.inject_replay("agg", "dc-1", 400.0, gen_time_s=1.0)
        assert runtime.total_backlog() == pytest.approx(before + 400.0)
        # Replayed events carry their pre-failure generation time, so the
        # delay of whatever drains next reflects the recovery cost (the
        # healthy-flow floor here is ~0.6 s; replay blends in ~5 s ages).
        report = runtime.tick()
        assert report.mean_sink_delay_s() > 1.5

    def test_replay_at_a_source_stage_feeds_generation_queue(
        self, small_topology
    ):
        runtime = build_pipeline(small_topology)
        runtime.inject_replay("src", "edge-x", 100.0, gen_time_s=0.0)
        assert input_backlog(runtime, "src", "edge-x") == 100.0

    def test_non_positive_replay_is_ignored(self, small_topology):
        runtime = build_pipeline(small_topology)
        before = runtime.total_backlog()
        runtime.inject_replay("agg", "dc-1", 0.0, gen_time_s=0.0)
        runtime.inject_replay("agg", "dc-1", -5.0, gen_time_s=0.0)
        assert runtime.total_backlog() == before


class TestMutationSnapshot:
    def test_rollback_restores_queues_and_suspensions(self, small_topology):
        runtime = build_pipeline(small_topology, rate=60_000.0)
        for _ in range(5):
            runtime.tick()  # builds net/input backlog on the slow link
        snapshot = runtime.mutation_snapshot()
        backlog = runtime.total_backlog()
        runtime.suspend_stage("agg", 99.0)
        runtime.rehome("agg", "dc-1", "dc-2", relay=False)
        runtime.inject_replay("agg", "dc-2", 1000.0, gen_time_s=0.0)
        runtime.restore_mutation_snapshot(snapshot)
        assert runtime.total_backlog() == pytest.approx(backlog)
        assert not runtime.is_suspended("agg")

    def test_snapshot_is_isolated_from_later_ticks(self, small_topology):
        runtime = build_pipeline(small_topology, rate=60_000.0)
        for _ in range(3):
            runtime.tick()
        snapshot = runtime.mutation_snapshot()
        backlog = runtime.total_backlog()
        for _ in range(5):
            runtime.tick()  # mutates live queues
        runtime.restore_mutation_snapshot(snapshot)
        assert runtime.total_backlog() == pytest.approx(backlog)

    def test_routing_follows_restored_flow_queues(self, small_topology):
        # Restoring swaps in fresh flow-queue objects while the plan (and
        # so the plan cache) stays the same; routing must re-resolve its
        # rows, or output lands in the old, orphaned flow queues.
        runtime = build_pipeline(small_topology)
        for _ in range(3):
            runtime.tick()
        runtime.restore_mutation_snapshot(runtime.mutation_snapshot())
        for _ in range(30):
            report = runtime.tick()
        assert report.sink_events == pytest.approx(5.0, rel=0.01)
        assert runtime.total_backlog() < 1.0
