"""Tests for repro.core.policy - the Figure 6 decision tree."""

import pytest

from repro.config import WaspConfig
from repro.core.actions import (
    ActionKind,
    ReassignAction,
    ReplanAction,
    ScaleAction,
    ScaleDownAction,
)
from repro.core.diagnosis import Health, LinkPressure, StageDiagnosis
from repro.core.estimator import StageEstimate
from repro.core.policy import AdaptationPolicy, PolicyContext, PolicyMode
from repro.core.replanning import Replanner
from repro.engine.logical import LogicalPlan
from repro.engine.operators import (
    filter_,
    sink,
    source,
    top_k,
    union,
    window_aggregate,
)
from repro.engine.physical import PhysicalPlan


class StubNetwork:
    def __init__(self, bandwidth=None, latency=None, default_bw=50.0):
        self.bw = bandwidth or {}
        self.lat = latency or {}
        self.default_bw = default_bw

    def bandwidth_mbps(self, src, dst):
        if src == dst:
            return 100_000.0
        return self.bw.get((src, dst), self.default_bw)

    def latency_ms(self, src, dst):
        if src == dst:
            return 0.5
        return self.lat.get((src, dst), 50.0)


def stateful_plan(agg_sites=("dc-1",)):
    ops = [
        source("src", "edge-x", event_bytes=200),
        filter_("flt", selectivity=0.5, event_bytes=100),
        window_aggregate("agg", window_s=10, selectivity=0.01, state_mb=10),
        sink("out"),
    ]
    logical = LogicalPlan.from_edges(
        "q", ops, [("src", "flt"), ("flt", "agg"), ("agg", "out")]
    )
    plan = PhysicalPlan(logical)
    plan.stage("src").add_task("edge-x")
    for site in agg_sites:
        plan.stage("agg").add_task(site)
    plan.stage("out").add_task("dc-1")
    for stage in plan.topological_stages():
        stage.initial_parallelism = max(1, stage.parallelism)
    return plan


def diagnosis_for(stage, health, **kwargs):
    defaults = dict(
        expected_input_eps=1000.0,
        processing_capacity_eps=40_000.0,
        utilization=0.5,
        input_backlog=0.0,
        input_backlog_growth=0.0,
        constrained_links=(),
    )
    defaults.update(kwargs)
    return StageDiagnosis(stage=stage, health=health, **defaults)


def context(plan, diagnoses, *, mode=None, replanner=None, slots=None,
            estimates=None, network=None, state_mb=10.0, config=None):
    est = estimates or {
        name: StageEstimate(name, 1000.0, 10.0) for name in plan.stages
    }
    return PolicyContext(
        plan=plan,
        diagnoses=diagnoses,
        estimates=est,
        network=network or StubNetwork(),
        available_slots=slots or {"edge-x": 2, "dc-1": 6, "dc-2": 8},
        state_mb_at=lambda stage, site: state_mb,
        source_generation_eps={"src": 2000.0},
        config=config or WaspConfig.paper_defaults(),
        replanner=replanner,
        mode=mode or PolicyMode.wasp(),
    )


class TestHealthyAndModes:
    def test_healthy_stage_no_action(self):
        plan = stateful_plan()
        ctx = context(
            plan, {"agg": diagnosis_for("agg", Health.HEALTHY)}
        )
        assert AdaptationPolicy().decide(ctx) == []

    def test_missing_diagnosis_skipped(self):
        plan = stateful_plan()
        assert AdaptationPolicy().decide(context(plan, {})) == []

    def test_policy_modes(self):
        assert PolicyMode.reassign_only() == PolicyMode(True, False, False)
        assert PolicyMode.scale_only() == PolicyMode(True, True, False)
        assert PolicyMode.replan_only() == PolicyMode(False, False, True)


class TestComputeBound:
    def test_scale_up_prefers_local_slots(self):
        """Figure 6: compute bottleneck -> scale up within the site."""
        plan = stateful_plan()
        ctx = context(
            plan,
            {
                "agg": diagnosis_for(
                    "agg",
                    Health.COMPUTE_BOUND,
                    expected_input_eps=60_000.0,
                    processing_capacity_eps=40_000.0,
                    utilization=1.0,
                )
            },
        )
        actions = AdaptationPolicy().decide(ctx)
        assert len(actions) == 1
        action = actions[0]
        assert isinstance(action, ScaleAction)
        assert action.kind is ActionKind.SCALE_UP
        assert action.new_assignment.get("dc-1", 0) >= 2

    def test_scale_up_goes_remote_when_local_full(self):
        plan = stateful_plan()
        ctx = context(
            plan,
            {
                "agg": diagnosis_for(
                    "agg",
                    Health.COMPUTE_BOUND,
                    expected_input_eps=60_000.0,
                    processing_capacity_eps=40_000.0,
                )
            },
            slots={"edge-x": 0, "dc-1": 0, "dc-2": 4},
        )
        actions = AdaptationPolicy().decide(ctx)
        action = actions[0]
        assert action.kind is ActionKind.SCALE_OUT
        assert "dc-2" in action.new_assignment

    def test_no_slots_anywhere_no_action(self):
        plan = stateful_plan()
        ctx = context(
            plan,
            {
                "agg": diagnosis_for(
                    "agg",
                    Health.COMPUTE_BOUND,
                    expected_input_eps=60_000.0,
                )
            },
            slots={"edge-x": 0, "dc-1": 0, "dc-2": 0},
        )
        assert AdaptationPolicy().decide(ctx) == []


class TestNetworkBound:
    def constrained(self, expected_flow=8000.0, capacity=4000.0):
        return diagnosis_for(
            "agg",
            Health.NETWORK_BOUND,
            constrained_links=(
                LinkPressure(
                    src_site="edge-x",
                    dst_site="dc-1",
                    expected_flow_eps=expected_flow,
                    capacity_eps=capacity,
                ),
            ),
        )

    def test_stateful_tries_reassign_first(self):
        """Figure 6: network bottleneck + stateful -> re-assign."""
        plan = stateful_plan()
        network = StubNetwork(
            bandwidth={("edge-x", "dc-1"): 0.5, ("edge-x", "dc-2"): 50.0}
        )
        estimates = {
            "src": StageEstimate("src", 2000.0, 1000.0),
            "agg": StageEstimate("agg", 1000.0, 10.0),
            "out": StageEstimate("out", 10.0, 10.0),
        }
        ctx = context(
            plan, {"agg": self.constrained()},
            network=network, estimates=estimates,
        )
        actions = AdaptationPolicy().decide(ctx)
        assert len(actions) == 1
        assert isinstance(actions[0], ReassignAction)
        # The constrained destination is abandoned; the solver may pick
        # any feasible site (co-locating at the source is optimal here).
        assert "dc-1" not in actions[0].new_assignment

    def test_scale_out_when_no_single_placement_fits(self):
        """Section 8.4: when no alternative link can carry the whole
        stream, scale out across sites instead."""
        plan = stateful_plan()
        # Both candidate links are too weak for the whole flow, but two
        # half-flows fit.
        network = StubNetwork(
            bandwidth={
                ("edge-x", "dc-1"): 0.5,
                ("edge-x", "dc-2"): 0.5,
            },
            default_bw=0.5,
        )
        estimates = {
            "src": StageEstimate("src", 2000.0, 1000.0),
            "agg": StageEstimate("agg", 1000.0, 10.0),
            "out": StageEstimate("out", 10.0, 10.0),
        }
        ctx = context(
            plan, {"agg": self.constrained()},
            network=network, estimates=estimates,
        )
        actions = AdaptationPolicy().decide(ctx)
        assert len(actions) == 1
        assert actions[0].kind in (ActionKind.SCALE_OUT, ActionKind.SCALE_UP)
        assert sum(actions[0].new_assignment.values()) > 1

    def test_migration_overhead_blocks_reassign(self):
        """t_adapt > t_max falls through to scale-out (Section 6.2)."""
        plan = stateful_plan()
        network = StubNetwork(
            bandwidth={("edge-x", "dc-1"): 0.5}, default_bw=2.0
        )
        estimates = {
            "src": StageEstimate("src", 2000.0, 1000.0),
            "agg": StageEstimate("agg", 1000.0, 10.0),
            "out": StageEstimate("out", 10.0, 10.0),
        }
        config = WaspConfig.paper_defaults().with_overrides(t_max_s=0.5)
        ctx = context(
            plan, {"agg": self.constrained()},
            network=network, estimates=estimates, state_mb=500.0,
            config=config,
        )
        actions = AdaptationPolicy().decide(ctx)
        # 500 MB over ~2 Mbps is far above t_max: reassign is rejected.
        assert all(not isinstance(a, ReassignAction) for a in actions)

    def test_reassign_only_mode_gets_stuck(self):
        """The Section 8.5 Re-assign baseline: no solution -> no action."""
        plan = stateful_plan()
        network = StubNetwork(default_bw=0.1)
        estimates = {
            "src": StageEstimate("src", 2000.0, 1000.0),
            "agg": StageEstimate("agg", 1000.0, 10.0),
            "out": StageEstimate("out", 10.0, 10.0),
        }
        ctx = context(
            plan, {"agg": self.constrained()},
            network=network, estimates=estimates,
            mode=PolicyMode.reassign_only(),
        )
        assert AdaptationPolicy().decide(ctx) == []


class TestWasteful:
    def test_scale_down_one_task(self):
        plan = stateful_plan(agg_sites=("dc-1", "dc-2"))
        ctx = context(
            plan,
            {
                "agg": diagnosis_for(
                    "agg",
                    Health.WASTEFUL,
                    expected_input_eps=1000.0,
                    processing_capacity_eps=80_000.0,
                    utilization=0.1,
                )
            },
        )
        actions = AdaptationPolicy().decide(ctx)
        assert len(actions) == 1
        assert isinstance(actions[0], ScaleDownAction)

    def test_wasteful_diagnosis_alone_gates_scale_down(self):
        """The policy acts on the WASTEFUL verdict alone: 37k expected on
        80k capacity is above 0.9 x (capacity - the average task) = 36k,
        the headroom a second scale-down rule once required, and the
        stage still sheds a task."""
        plan = stateful_plan(agg_sites=("dc-1", "dc-2"))
        ctx = context(
            plan,
            {
                "agg": diagnosis_for(
                    "agg",
                    Health.WASTEFUL,
                    expected_input_eps=37_000.0,
                    processing_capacity_eps=80_000.0,
                    utilization=0.46,
                )
            },
        )
        actions = AdaptationPolicy().decide(ctx)
        assert len(actions) == 1
        assert isinstance(actions[0], ScaleDownAction)

    def test_scale_down_blocked_without_bandwidth(self):
        """Section 4.2: remaining sites must have the bandwidth to absorb
        the relayed stream."""
        plan = stateful_plan(agg_sites=("dc-1", "dc-2"))
        network = StubNetwork(default_bw=0.001)
        estimates = {
            "src": StageEstimate("src", 20_000.0, 10_000.0),
            "agg": StageEstimate("agg", 10_000.0, 100.0),
            "out": StageEstimate("out", 100.0, 100.0),
        }
        ctx = context(
            plan,
            {
                "agg": diagnosis_for(
                    "agg",
                    Health.WASTEFUL,
                    expected_input_eps=10_000.0,
                    processing_capacity_eps=80_000.0,
                    utilization=0.2,
                )
            },
            network=network,
            estimates=estimates,
        )
        assert AdaptationPolicy().decide(ctx) == []

    def test_scale_disabled_blocks_scale_down(self):
        plan = stateful_plan(agg_sites=("dc-1", "dc-2"))
        ctx = context(
            plan,
            {"agg": diagnosis_for("agg", Health.WASTEFUL, utilization=0.1)},
            mode=PolicyMode.reassign_only(),
        )
        assert AdaptationPolicy().decide(ctx) == []


class TestReplanPaths:
    @staticmethod
    def stateless_variants():
        def variant(name, relay_bytes):
            ops = [
                source("a", "edge-x", event_bytes=200),
                filter_("fa", selectivity=0.5, event_bytes=relay_bytes),
                union("u", event_bytes=relay_bytes),
                sink("out"),
            ]
            return LogicalPlan.from_edges(
                name, ops, [("a", "fa"), ("fa", "u"), ("u", "out")]
            )

        return [variant("v0", 150), variant("v1", 30)]

    def test_stateless_network_bound_prefers_replan(self):
        variants = self.stateless_variants()
        plan = PhysicalPlan(variants[0])
        plan.stage("a").add_task("edge-x")
        plan.stage("u").add_task("dc-1")
        plan.stage("out").add_task("dc-1")
        diag = diagnosis_for(
            "u",
            Health.NETWORK_BOUND,
            constrained_links=(
                LinkPressure("edge-x", "dc-1", 5_000.0, 2_000.0),
            ),
        )
        diag = StageDiagnosis(
            stage="u", health=Health.NETWORK_BOUND,
            expected_input_eps=diag.expected_input_eps,
            processing_capacity_eps=diag.processing_capacity_eps,
            utilization=diag.utilization,
            input_backlog=diag.input_backlog,
            input_backlog_growth=diag.input_backlog_growth,
            constrained_links=diag.constrained_links,
        )
        est = {
            "a": StageEstimate("a", 10_000.0, 5_000.0),
            "u": StageEstimate("u", 5_000.0, 5_000.0),
            "out": StageEstimate("out", 5_000.0, 5_000.0),
        }
        ctx = PolicyContext(
            plan=plan,
            diagnoses={"u": diag},
            estimates=est,
            network=StubNetwork(default_bw=8.0),
            available_slots={"edge-x": 0, "dc-1": 6, "dc-2": 8},
            state_mb_at=lambda s, site: 0.0,
            source_generation_eps={"a": 10_000.0},
            config=WaspConfig.paper_defaults(),
            replanner=Replanner(variants),
            mode=PolicyMode.wasp(),
        )
        actions = AdaptationPolicy().decide(ctx)
        assert len(actions) == 1
        assert isinstance(actions[0], ReplanAction)
        assert actions[0].estimate.logical.name == "v1"

    def test_replan_subsumes_other_actions(self):
        """A replan replaces the entire execution: other per-stage actions
        in the same round are dropped."""
        variants = self.stateless_variants()
        plan = PhysicalPlan(variants[0])
        plan.stage("a").add_task("edge-x")
        plan.stage("u").add_task("dc-1")
        plan.stage("out").add_task("dc-1")
        link = LinkPressure("edge-x", "dc-1", 5_000.0, 2_000.0)
        diagnoses = {
            "u": diagnosis_for("u", Health.NETWORK_BOUND,
                               constrained_links=(link,)),
            "out": diagnosis_for(
                "out", Health.COMPUTE_BOUND, expected_input_eps=60_000.0,
            ),
        }
        est = {
            "a": StageEstimate("a", 10_000.0, 5_000.0),
            "u": StageEstimate("u", 5_000.0, 5_000.0),
            "out": StageEstimate("out", 5_000.0, 5_000.0),
        }
        ctx = PolicyContext(
            plan=plan,
            diagnoses=diagnoses,
            estimates=est,
            network=StubNetwork(default_bw=8.0),
            available_slots={"edge-x": 0, "dc-1": 6, "dc-2": 8},
            state_mb_at=lambda s, site: 0.0,
            source_generation_eps={"a": 10_000.0},
            config=WaspConfig.paper_defaults(),
            replanner=Replanner(variants),
            mode=PolicyMode.wasp(),
        )
        actions = AdaptationPolicy().decide(ctx)
        assert len(actions) == 1
        assert isinstance(actions[0], ReplanAction)


class TestMigrationBudget:
    """Section 6.2: the t_max budget governs every state-moving action."""

    def _net_diag(self):
        link = LinkPressure("edge-x", "dc-1", 8_000.0, 4_000.0)
        return diagnosis_for(
            "agg", Health.NETWORK_BOUND, constrained_links=(link,)
        )

    def test_scale_out_avoids_slow_destinations(self):
        """With a fast and a slow candidate, the state slice goes to the
        fast one even if the slow one is latency-closer."""
        plan = stateful_plan()
        network = StubNetwork(
            bandwidth={
                ("edge-x", "dc-1"): 0.5,   # constrained inbound link
                ("dc-1", "dc-2"): 100.0,   # fast state path
                ("dc-1", "edge-x"): 0.2,   # terrible state path
            },
            latency={("dc-1", "edge-x"): 1.0, ("dc-1", "dc-2"): 200.0},
            default_bw=50.0,
        )
        estimates = {
            "src": StageEstimate("src", 2000.0, 1000.0),
            "agg": StageEstimate("agg", 1000.0, 10.0),
            "out": StageEstimate("out", 10.0, 10.0),
        }
        config = WaspConfig.paper_defaults().with_overrides(t_max_s=30.0)
        ctx = context(
            plan, {"agg": self._net_diag()},
            network=network, estimates=estimates, state_mb=200.0,
            config=config,
            slots={"edge-x": 2, "dc-1": 6, "dc-2": 8},
        )
        actions = AdaptationPolicy().decide(ctx)
        scale_actions = [a for a in actions if isinstance(a, ScaleAction)]
        if scale_actions:
            # 100 MB slice over 0.2 Mbps = ~4000 s >> t_max: edge-x must
            # not receive a new stateful task.
            assert "edge-x" not in scale_actions[0].new_assignment

    def test_scale_out_last_resort_waives_budget(self):
        """When no destination meets t_max, scaling still happens (long
        migration beats unbounded queue growth)."""
        plan = stateful_plan()
        network = StubNetwork(default_bw=0.5)
        estimates = {
            "src": StageEstimate("src", 2000.0, 1000.0),
            "agg": StageEstimate("agg", 1000.0, 10.0),
            "out": StageEstimate("out", 10.0, 10.0),
        }
        ctx = context(
            plan, {"agg": self._net_diag()},
            network=network, estimates=estimates, state_mb=100.0,
        )
        actions = AdaptationPolicy().decide(ctx)
        assert len(actions) == 1
        assert "waived" in actions[0].reason

    def test_scale_down_blocked_by_expensive_merge(self):
        """Scale-down is optional: never worth a long state merge."""
        plan = stateful_plan(agg_sites=("dc-1", "dc-2"))
        network = StubNetwork(default_bw=0.1)  # 500 MB merge would take ages
        estimates = {
            "src": StageEstimate("src", 200.0, 100.0),
            "agg": StageEstimate("agg", 100.0, 1.0),
            "out": StageEstimate("out", 1.0, 1.0),
        }
        ctx = context(
            plan,
            {
                "agg": diagnosis_for(
                    "agg", Health.WASTEFUL,
                    expected_input_eps=100.0,
                    processing_capacity_eps=80_000.0,
                    utilization=0.01,
                )
            },
            network=network, estimates=estimates, state_mb=500.0,
        )
        assert AdaptationPolicy().decide(ctx) == []

    def test_scale_down_allowed_with_cheap_merge(self):
        plan = stateful_plan(agg_sites=("dc-1", "dc-2"))
        network = StubNetwork(default_bw=1000.0)
        estimates = {
            "src": StageEstimate("src", 200.0, 100.0),
            "agg": StageEstimate("agg", 100.0, 1.0),
            "out": StageEstimate("out", 1.0, 1.0),
        }
        ctx = context(
            plan,
            {
                "agg": diagnosis_for(
                    "agg", Health.WASTEFUL,
                    expected_input_eps=100.0,
                    processing_capacity_eps=80_000.0,
                    utilization=0.01,
                )
            },
            network=network, estimates=estimates, state_mb=10.0,
        )
        actions = AdaptationPolicy().decide(ctx)
        assert len(actions) == 1
        assert isinstance(actions[0], ScaleDownAction)
