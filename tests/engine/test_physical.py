"""Tests for repro.engine.physical - stages, chaining, tasks."""

import pytest

from repro.engine.logical import LogicalPlan
from repro.engine.operators import (
    filter_,
    map_,
    sink,
    source,
    union,
    window_aggregate,
)
from repro.engine.physical import PhysicalPlan
from repro.errors import PlanError
from tests.slots import fully_deployed


def chained_logical():
    ops = [
        source("src", "site-a", event_bytes=200),
        filter_("flt", selectivity=0.5, event_bytes=100),
        map_("mp", event_bytes=100, cost=0.5),
        window_aggregate("agg", window_s=10, selectivity=0.01, state_mb=6,
                         event_bytes=64),
        sink("out"),
    ]
    edges = [("src", "flt"), ("flt", "mp"), ("mp", "agg"), ("agg", "out")]
    return LogicalPlan.from_edges("q", ops, edges)


def fan_in_logical():
    ops = [
        source("a", "site-a"),
        source("b", "site-b"),
        filter_("fa", selectivity=0.5),
        filter_("fb", selectivity=0.5),
        union("u"),
        sink("out"),
    ]
    edges = [("a", "fa"), ("b", "fb"), ("fa", "u"), ("fb", "u"), ("u", "out")]
    return LogicalPlan.from_edges("q", ops, edges)


class TestChaining:
    def test_narrow_ops_chain_into_source(self):
        plan = PhysicalPlan(chained_logical())
        stage = plan.stage("src")
        assert [op.name for op in stage.operators] == ["src", "flt", "mp"]

    def test_window_starts_new_stage(self):
        plan = PhysicalPlan(chained_logical())
        assert "agg" in plan.stages

    def test_stage_count(self):
        plan = PhysicalPlan(chained_logical())
        assert set(plan.stages) == {"src", "agg", "out"}

    def test_chaining_disabled(self):
        plan = PhysicalPlan(chained_logical(), chaining=False)
        assert set(plan.stages) == {"src", "flt", "mp", "agg", "out"}

    def test_fan_in_not_chained(self):
        """A union with two inputs cannot chain into either upstream."""
        plan = PhysicalPlan(fan_in_logical())
        assert "u" in plan.stages

    def test_filters_chain_per_branch(self):
        plan = PhysicalPlan(fan_in_logical())
        assert [op.name for op in plan.stage("a").operators] == ["a", "fa"]

    def test_stage_of_operator(self):
        plan = PhysicalPlan(chained_logical())
        # The chained map runs inside its source's stage.
        assert plan._member_of["mp"] == "src"


class TestCombinedProperties:
    def test_combined_selectivity(self):
        plan = PhysicalPlan(chained_logical())
        assert plan.stage("src").selectivity == pytest.approx(0.5)

    def test_combined_cost_discounts_by_survival(self):
        plan = PhysicalPlan(chained_logical())
        # src(0.25) + flt(1.0)*1.0 + mp(0.5)*0.5 = 1.5
        assert plan.stage("src").cost == pytest.approx(0.25 + 1.0 + 0.25)

    def test_output_event_bytes_from_tail(self):
        plan = PhysicalPlan(chained_logical())
        assert plan.stage("src").output_event_bytes == 100.0
        assert plan.stage("agg").output_event_bytes == 64.0

    def test_statefulness_bubbles_up(self):
        plan = PhysicalPlan(chained_logical())
        assert plan.stage("agg").stateful
        assert not plan.stage("src").stateful

    def test_state_mb_sums(self):
        plan = PhysicalPlan(chained_logical())
        assert plan.stage("agg").state_mb == 6.0

    def test_pinned_site(self):
        plan = PhysicalPlan(chained_logical())
        assert plan.stage("src").pinned_site == "site-a"
        assert plan.stage("agg").pinned_site is None

    def test_sink_not_splittable(self):
        plan = PhysicalPlan(chained_logical())
        assert not plan.stage("out").splittable


class TestTasks:
    def test_add_task_appends_one_task_per_call(self):
        plan = PhysicalPlan(chained_logical())
        stage = plan.stage("agg")
        t0 = stage.add_task("site-a")
        t1 = stage.add_task("site-b")
        assert stage.tasks == [t0, t1]
        assert (t1.stage_name, t1.site) == ("agg", "site-b")
        assert stage.parallelism == 2

    def test_placement_counts(self):
        plan = PhysicalPlan(chained_logical())
        stage = plan.stage("agg")
        stage.add_task("a")
        stage.add_task("a")
        stage.add_task("b")
        assert stage.placement() == {"a": 2, "b": 1}
        assert stage.sites() == ["a", "b"]

    def test_remove_task_at(self):
        plan = PhysicalPlan(chained_logical())
        stage = plan.stage("agg")
        stage.add_task("a")
        stage.add_task("b")
        stage.remove_task_at("a")
        assert stage.placement() == {"b": 1}

    def test_remove_missing_task_rejected(self):
        plan = PhysicalPlan(chained_logical())
        with pytest.raises(PlanError):
            plan.stage("agg").remove_task_at("nowhere")

    def test_state_per_task_balanced(self):
        plan = PhysicalPlan(chained_logical())
        stage = plan.stage("agg")
        stage.add_task("a")
        stage.add_task("b")
        # Balanced partitioning (Section 7): an equal share per task.
        assert stage.state_mb / len(stage.tasks) == pytest.approx(3.0)

    def test_state_per_task_zero_for_stateless(self):
        plan = PhysicalPlan(chained_logical())
        stage = plan.stage("src")
        stage.add_task("site-a")
        assert not stage.stateful


class TestStageGraph:
    def test_stage_edges(self):
        plan = PhysicalPlan(chained_logical())
        assert plan.stage_edges == [("agg", "out"), ("src", "agg")]

    def test_upstream_downstream_stages(self):
        plan = PhysicalPlan(chained_logical())
        assert [s.name for s in plan.upstream_stages("agg")] == ["src"]
        assert [s.name for s in plan.downstream_stages("agg")] == ["out"]

    def test_source_and_sink_stages(self):
        plan = PhysicalPlan(fan_in_logical())
        assert {s.name for s in plan.source_stages()} == {"a", "b"}
        sinks = [s.name for s in plan.topological_stages() if s.is_sink]
        assert sinks == ["out"]

    def test_unknown_stage_rejected(self):
        with pytest.raises(PlanError):
            PhysicalPlan(chained_logical()).stage("zzz")

    def test_total_parallelism(self):
        plan = PhysicalPlan(chained_logical())
        plan.stage("src").add_task("site-a")
        plan.stage("agg").add_task("x")
        assert plan.total_parallelism() == 2

    def test_deployed_requires_all_stages(self):
        plan = PhysicalPlan(chained_logical())
        assert not fully_deployed(plan)
        for name in plan.stages:
            plan.stage(name).add_task("site-a")
        assert fully_deployed(plan)


class TestExpectedRates:
    def test_rates_through_chain(self):
        plan = PhysicalPlan(chained_logical())
        rates = plan.expected_stage_rates({"src": 1000.0})
        assert rates["src"]["output"] == pytest.approx(500.0)
        assert rates["agg"]["input"] == pytest.approx(500.0)
        assert rates["agg"]["output"] == pytest.approx(5.0)

    def test_fan_in_rates_sum(self):
        plan = PhysicalPlan(fan_in_logical())
        rates = plan.expected_stage_rates({"a": 100.0, "b": 300.0})
        assert rates["u"]["input"] == pytest.approx(200.0)
