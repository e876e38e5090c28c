"""Tests for repro.planner.scheduler - slot accounting and task diffs."""

import pytest

from repro.engine.logical import LogicalPlan
from repro.engine.operators import filter_, sink, source, window_aggregate
from repro.engine.physical import PhysicalPlan
from repro.errors import InsufficientSlotsError, SchedulingError
from repro.planner.scheduler import Scheduler


def make_plan():
    ops = [
        source("src", "edge-x"),
        filter_("flt", selectivity=0.5),
        window_aggregate("agg", window_s=10, selectivity=0.01, state_mb=5),
        sink("out"),
    ]
    logical = LogicalPlan.from_edges(
        "q", ops, [("src", "flt"), ("flt", "agg"), ("agg", "out")]
    )
    return PhysicalPlan(logical)


ASSIGNMENTS = {
    "src": {"edge-x": 1},
    "agg": {"dc-1": 1},
    "out": {"dc-1": 1},
}


class TestDeploy:
    def test_deploy_allocates_slots(self, small_topology):
        scheduler = Scheduler(small_topology)
        scheduler.deploy(make_plan(), ASSIGNMENTS)
        assert small_topology.site("dc-1").used_slots == 2
        assert small_topology.site("edge-x").used_slots == 1

    def test_deploy_creates_tasks(self, small_topology):
        scheduler = Scheduler(small_topology)
        plan = make_plan()
        scheduler.deploy(plan, ASSIGNMENTS)
        assert plan.deployed()
        assert plan.stage("agg").initial_parallelism == 1

    def test_initial_slots_recorded(self, small_topology):
        scheduler = Scheduler(small_topology)
        plan = make_plan()
        scheduler.deploy(plan, ASSIGNMENTS)
        assert scheduler.initial_slots == 3
        assert plan.total_parallelism() - scheduler.initial_slots == 0

    def test_initial_slots_are_this_querys_tasks(self, small_topology):
        """A second query on the same topology counts only its own tasks
        (the topology-wide used-slot count read 6 here)."""
        Scheduler(small_topology).deploy(make_plan(), ASSIGNMENTS)
        second = Scheduler(small_topology)
        second.deploy(make_plan(), ASSIGNMENTS)
        assert second.initial_slots == 3

    def test_missing_assignment_rejected(self, small_topology):
        scheduler = Scheduler(small_topology)
        with pytest.raises(SchedulingError):
            scheduler.deploy(make_plan(), {"src": {"edge-x": 1}})

    def test_double_deploy_rejected(self, small_topology):
        scheduler = Scheduler(small_topology)
        plan = make_plan()
        scheduler.deploy(plan, ASSIGNMENTS)
        with pytest.raises(SchedulingError):
            scheduler.deploy(plan, ASSIGNMENTS)

    def test_undeploy_releases_everything(self, small_topology):
        scheduler = Scheduler(small_topology)
        plan = make_plan()
        scheduler.deploy(plan, ASSIGNMENTS)
        scheduler.undeploy(plan)
        assert small_topology.total_used_slots() == 0
        assert plan.stage("agg").parallelism == 0


class TestMutations:
    @pytest.fixture
    def deployed(self, small_topology):
        scheduler = Scheduler(small_topology)
        plan = make_plan()
        scheduler.deploy(plan, ASSIGNMENTS)
        return scheduler, plan

    def test_reassign_computes_diff(self, deployed):
        scheduler, plan = deployed
        diff = scheduler.apply_assignment(plan.stage("agg"), {"dc-2": 1})
        assert diff.added == {"dc-2": 1}
        assert diff.removed == {"dc-1": 1}
        assert plan.stage("agg").placement() == {"dc-2": 1}

    def test_reassign_keeps_unmoved_tasks(self, deployed):
        """Section 4.1: only S - S' is migrated."""
        scheduler, plan = deployed
        stage = plan.stage("agg")
        scheduler.add_tasks(stage, {"dc-2": 1})
        original_task_ids = {t.task_id for t in stage.tasks if t.site == "dc-1"}
        diff = scheduler.apply_assignment(stage, {"dc-1": 1, "edge-x": 1})
        assert diff.removed == {"dc-2": 1}
        surviving = {t.task_id for t in stage.tasks if t.site == "dc-1"}
        assert surviving == original_task_ids

    def test_scale_up_adds_slots(self, deployed):
        scheduler, plan = deployed
        scheduler.add_tasks(plan.stage("agg"), {"dc-1": 2})
        assert plan.stage("agg").parallelism == 3
        assert plan.total_parallelism() - scheduler.initial_slots == 2

    def test_remove_task(self, deployed):
        scheduler, plan = deployed
        stage = plan.stage("agg")
        scheduler.add_tasks(stage, {"dc-2": 1})
        scheduler.remove_task(stage, "dc-2")
        assert stage.placement() == {"dc-1": 1}

    def test_remove_last_task_rejected(self, deployed):
        scheduler, plan = deployed
        with pytest.raises(SchedulingError):
            scheduler.remove_task(plan.stage("agg"), "dc-1")

    def test_remove_from_empty_site_rejected(self, deployed):
        scheduler, plan = deployed
        with pytest.raises(SchedulingError):
            scheduler.remove_task(plan.stage("agg"), "dc-2")

    def test_over_allocation_rolls_back(self, deployed):
        scheduler, plan = deployed
        stage = plan.stage("agg")
        used_before = {
            s: scheduler.topology.site(s).used_slots
            for s in scheduler.topology.site_names
        }
        with pytest.raises(InsufficientSlotsError):
            scheduler.apply_assignment(stage, {"dc-1": 1, "edge-x": 99})
        used_after = {
            s: scheduler.topology.site(s).used_slots
            for s in scheduler.topology.site_names
        }
        assert used_before == used_after

    def test_moved_pairs(self, deployed):
        scheduler, plan = deployed
        diff = scheduler.apply_assignment(plan.stage("agg"), {"dc-2": 1})
        assert diff.moved_pairs == 1


class TestFailureEvacuation:
    def test_evacuate_removes_stranded_tasks(self, small_topology):
        scheduler = Scheduler(small_topology)
        plan = make_plan()
        scheduler.deploy(plan, ASSIGNMENTS)
        small_topology.site("dc-1").fail()
        lost = scheduler.evacuate_failed_sites(plan)
        assert lost == {"agg": 1, "out": 1}
        assert plan.stage("agg").parallelism == 0

    def test_evacuate_noop_without_failures(self, small_topology):
        scheduler = Scheduler(small_topology)
        plan = make_plan()
        scheduler.deploy(plan, ASSIGNMENTS)
        assert scheduler.evacuate_failed_sites(plan) == {}
        assert plan.deployed()

    def test_evacuation_releases_failed_slots_wholesale(
        self, small_topology
    ):
        scheduler = Scheduler(small_topology)
        plan = make_plan()
        scheduler.deploy(plan, ASSIGNMENTS)
        assert small_topology.site("dc-1").used_slots == 2
        small_topology.site("dc-1").fail()
        scheduler.evacuate_failed_sites(plan)
        # The site lost the slots anyway; accounting must not leak them.
        assert small_topology.site("dc-1").used_slots == 0
        # Surviving sites keep their allocations.
        assert small_topology.site("edge-x").used_slots == 1

    def test_partial_failure_spares_surviving_tasks(self, small_topology):
        scheduler = Scheduler(small_topology)
        plan = make_plan()
        scheduler.deploy(
            plan,
            {
                "src": {"edge-x": 1},
                "agg": {"dc-1": 1, "dc-2": 1},
                "out": {"dc-2": 1},
            },
        )
        small_topology.site("dc-1").fail()
        lost = scheduler.evacuate_failed_sites(plan)
        assert lost == {"agg": 1}
        assert plan.stage("agg").placement() == {"dc-2": 1}
        assert plan.stage("out").placement() == {"dc-2": 1}

    def test_moving_a_task_off_a_crashed_site_frees_its_slot(
        self, small_topology
    ):
        """Under WASP a crashed site keeps its tasks until a re-assign
        moves them; the move must free the slot, so nothing leaks past the
        site's recovery."""
        scheduler = Scheduler(small_topology)
        plan = make_plan()
        scheduler.deploy(plan, ASSIGNMENTS)
        dc1 = small_topology.site("dc-1")
        dc1.fail()
        scheduler.apply_assignment(plan.stage("agg"), {"dc-2": 1})
        assert dc1.used_slots == 1  # the sink's task is still there
        dc1.recover()
        assert dc1.used_slots == 1
        assert dc1.available_slots == 7
        assert small_topology.site("dc-2").used_slots == 1

    def test_evacuation_is_idempotent(self, small_topology):
        scheduler = Scheduler(small_topology)
        plan = make_plan()
        scheduler.deploy(plan, ASSIGNMENTS)
        small_topology.site("dc-1").fail()
        first = scheduler.evacuate_failed_sites(plan)
        second = scheduler.evacuate_failed_sites(plan)
        assert first == {"agg": 1, "out": 1}
        assert second == {}
