"""The tick's versioned constants against the values they stand for.

The engines hold each site row's capacity until the topology's site-state
version or the tick length moves, and the plan's mutation version is one
counter that every stage mutator bumps.  These tests compare both with
what they replace: the capacity formula evaluated live on every tick, on
both backends, and the sum of the stage versions.
"""

import pytest

from repro.baselines.variants import no_adapt
from repro.chaos import ChaosInjector, SiteCrash, Straggler
from repro.config import WaspConfig
from repro.errors import PlanError
from repro.experiments.harness import ExperimentRun
from repro.experiments.scenarios import fig8_scenario
from repro.sim.rng import RngRegistry

SEED = 7


def live_capacities(runtime, dt, now):
    """Per stage, per site in row order: the capacity of the tick that
    started at ``now`` from the live plan, sites and suspensions, in the
    engine's formula and operand order."""
    topology = runtime.topology
    caps = {}
    for stage in runtime.plan.topological_stages():
        suspended = now < runtime.suspended_until(stage.name)
        placement = stage.placement()
        rows = caps[stage.name] = []
        for site in sorted(placement):
            site_obj = topology.site(site)
            if suspended or site_obj.failed:
                rows.append((site, 0.0))
            else:
                rows.append((
                    site,
                    placement[site] * site_obj.effective_proc_rate_eps
                    / stage.cost * dt,
                ))
    return caps


def tick_capacities(sums):
    """The capacities one tick added into freshly reset window sums."""
    return {
        stage: [(site, cell.value) for site, cell in by_site.items()]
        for stage, by_site in sums.capacity.items()
    }


def build(backend):
    scenario = fig8_scenario("topk-topics")
    rngs = RngRegistry(SEED)
    topology = scenario.make_topology(rngs)
    query = scenario.make_query(topology, rngs)
    run = ExperimentRun(
        topology,
        query,
        no_adapt(),
        config=WaspConfig(engine_backend=backend),
        rngs=rngs,
    )
    stage = max(
        run.runtime.plan.topological_stages(), key=lambda s: len(s.sites())
    )
    sites = stage.sites()
    run.attach_chaos(
        ChaosInjector(rng=RngRegistry(SEED).stream("chaos"))
        .at(5.0, SiteCrash(site=sites[0], duration_s=6.0))
        .at(8.0, Straggler(site=sites[-1], slowdown=3.0, duration_s=7.0))
    )
    return run, sites


@pytest.mark.parametrize("backend", ["reference", "dense"])
def test_cached_row_capacities_follow_every_site_change(backend):
    run, sites = build(backend)
    runtime = run.runtime
    sums = runtime.bind_window()
    dt = run.config.tick_s
    initial = run.topology.site_state_version
    for tick in range(1, 31):
        if tick == 20:
            # A direct write, outside any fault, and its revert.
            run.topology.site(sites[0]).set_slowdown(1.5)
        if tick == 24:
            run.topology.site(sites[0]).set_slowdown(1.0)
        if tick == 26:
            stage = runtime.plan.topological_stages()[1]
            runtime.suspend_stage(stage.name, 28.0)
        started = runtime.now_s
        sums.reset()
        run.step()
        expected = live_capacities(runtime, dt, started)
        got = tick_capacities(sums)
        assert sorted(got) == sorted(expected), tick
        for stage, rows in expected.items():
            assert repr(got[stage]) == repr(rows), (tick, stage)
    # Crash, its recovery, the straggler, its revert, two direct writes.
    assert run.topology.site_state_version - initial == 6


def test_failed_site_rows_read_zero_until_recovery():
    run, sites = build("reference")
    runtime = run.runtime
    sums = runtime.bind_window()
    seen = []
    for _ in range(14):
        sums.reset()
        run.step()
        seen.append([
            v
            for rows in tick_capacities(sums).values()
            for site, v in rows
            if site == sites[0]
        ])
    # Crashed from t=5 until its revert at t=11.
    assert all(v > 0.0 for v in seen[3])
    assert all(v == 0.0 for v in seen[6])
    assert all(v > 0.0 for v in seen[12])


class TestMutationVersion:
    """The O(1) counter against the sum of stage versions it replaced."""

    @staticmethod
    def oracle(plan):
        return sum(s.version for s in plan.stages.values())

    def test_counter_tracks_every_stage_mutator(self):
        run, _ = build("reference")
        plan = run.runtime.plan
        assert plan.mutation_version() == self.oracle(plan)
        stages = [s for s in plan.topological_stages() if s.tasks]
        history = [(plan.mutation_version(), self.oracle(plan))]

        def step(action):
            try:
                action()
            except PlanError:
                pass
            history.append((plan.mutation_version(), self.oracle(plan)))

        for stage in stages:
            site = stage.tasks[0].site
            snapshot = list(stage.tasks)
            step(lambda: stage.add_task(site))
            step(lambda: stage.remove_task(stage.tasks[-1]))
            step(lambda: stage.add_task(site))
            step(lambda: stage.remove_task_at(site))
            # Reads and a refused removal change nothing.
            step(lambda: stage.placement())
            step(lambda: stage.remove_task_at("no-such-site"))
            step(lambda: stage.clear_tasks())
            # A rollback restores the task set wholesale.
            step(lambda: stage.set_tasks(snapshot))
        for (before, old_before), (after, old_after) in zip(
            history, history[1:]
        ):
            assert (after > before) == (old_after > old_before)
            assert after >= before
        assert plan.mutation_version() == self.oracle(plan)

    def test_scheduler_mutations_and_rollback_keep_the_counter_exact(self):
        run, _ = build("reference")
        plan = run.runtime.plan
        scheduler = run.scheduler
        stage = next(s for s in plan.topological_stages() if not s.is_source)
        free = next(
            s.name
            for s in run.topology
            if s.available_slots > 0 and s.name not in stage.sites()
        )
        before = plan.mutation_version()
        snapshot = list(stage.tasks)
        slots = run.topology.slot_snapshot()
        scheduler.add_tasks(stage, {free: 1})
        assert plan.mutation_version() > before
        assert plan.mutation_version() == self.oracle(plan)
        stage.set_tasks(snapshot)
        run.topology.restore_slot_snapshot(slots)
        assert plan.mutation_version() == self.oracle(plan)

    def test_stages_of_different_plans_do_not_share_a_counter(self):
        run, _ = build("reference")
        other, _ = build("reference")
        plan, other_plan = run.runtime.plan, other.runtime.plan
        before = other_plan.mutation_version()
        stage = plan.topological_stages()[-1]
        stage.add_task(stage.tasks[0].site)
        assert other_plan.mutation_version() == before
