"""Acceptance tests for the chaos harness + transactional adaptation.

The tentpole invariant: a seeded chaos scenario that kills a site while a
state migration is in flight must leave the system consistent - no stage
references a failed site, slot accounting balances, state-store ownership
matches placement - with the rollback and the fallback technique recorded.
And determinism: the same seed with the same chaos spec reproduces the
adaptation record byte-for-byte.
"""

import numpy as np
import pytest

from repro.baselines.variants import no_adapt, wasp
from repro.chaos import ChaosInjector, SiteCrash, Straggler
from repro.core.actions import ReassignAction
from repro.core.transaction import AdaptationPoint
from repro.experiments.harness import ExperimentRun
from repro.network.traces import paper_testbed
from repro.sim.rng import RngRegistry
from repro.workloads.queries import ysb_advertising


def make_run(variant, seed=11):
    rngs = RngRegistry(seed)
    topology = paper_testbed(rngs.stream("topology"))
    query = ysb_advertising(topology)
    run = ExperimentRun(topology, query, variant, rngs=rngs)
    return run, rngs


def stateful_stage(run):
    """A deployed stateful stage and the site holding (some of) its state."""
    for stage in run.runtime.plan.topological_stages():
        if stage.stateful and stage.parallelism > 0:
            sites = run.state_store.sites(stage.name)
            if sites:
                return stage, sites[0]
    pytest.fail("query has no deployed stateful stage")


def assert_consistent(run):
    failed = {s.name for s in run.topology if s.failed}
    for stage in run.runtime.plan.topological_stages():
        if stage.is_source:
            continue
        placement = stage.placement()
        # No stage references a failed site.
        assert not set(placement) & failed, stage.name
        # State-store ownership matches placement.
        if stage.stateful:
            assert set(run.state_store.sites(stage.name)) <= set(
                placement
            ), stage.name
    # Slot accounting balances: every live task is backed by a used slot.
    tasks_at = {}
    for stage in run.runtime.plan.topological_stages():
        for site, count in stage.placement().items():
            tasks_at[site] = tasks_at.get(site, 0) + count
    for site in run.topology:
        if not site.failed:
            assert site.used_slots >= tasks_at.get(site.name, 0)


class TestKillSiteMidMigration:
    def test_consistent_after_rollback_and_fallback(self):
        run, rngs = make_run(wasp())
        stage, state_site = stateful_stage(run)
        # Pick a migration destination with capacity, distinct from where
        # the state lives today.
        destination = next(
            name
            for name, free in sorted(
                run.topology.available_slots().items()
            )
            if free > 0 and name not in stage.placement()
        )
        chaos = ChaosInjector(rngs.stream("chaos"))
        chaos.at_point(
            AdaptationPoint.MIGRATION_IN_FLIGHT,
            SiteCrash(destination),
            stage=stage.name,
        )
        run.attach_chaos(chaos)
        run.run(10.0)

        # Drive a cross-site move of the stateful stage; chaos kills the
        # destination the moment the transfer is in flight.
        record = run.manager.execute(
            ReassignAction(
                stage.name, "chaos-acceptance", {destination: 1}
            ),
            now_s=10.0,
        )
        assert run.topology.site(destination).failed
        outcomes = [(a.attempt, a.outcome) for a in run.manager.attempt_log]
        assert outcomes[0] == ("primary", "rolled-back")
        assert record is not None and record.attempt != "primary"
        assert destination not in run.runtime.plan.stage(
            stage.name
        ).placement()
        assert_consistent(run)

        # The timeline recorded the fault, the rollback and the fallback.
        assert any(
            f.kind == "site-crash" for f in run.recorder.faults
        )
        actions = [e.action for e in run.recorder.adaptations]
        assert "rollback" in actions
        assert any(a.startswith("fallback:") for a in actions)

        # The run keeps going without tripping any invariant.
        run.run(60.0)
        assert_consistent(run)
        assert run.recorder.total_dropped() == 0.0


class TestChaosDeterminism:
    def _chaos_run(self, seed):
        run, rngs = make_run(wasp(), seed=seed)
        _, state_site = stateful_stage(run)
        chaos = ChaosInjector(rngs.stream("chaos"))
        chaos.at(45.0, SiteCrash(state_site, duration_s=40.0))
        chaos.with_probability(
            0.02,
            Straggler("edge-3", slowdown=6.0, duration_s=15.0),
            start_s=20.0,
            end_s=160.0,
        )
        run.attach_chaos(chaos)
        run.run(200.0)
        return (
            repr(run.recorder.adaptations),
            repr(run.recorder.faults),
            repr(run.manager.attempt_log),
            repr(run.manager.history),
        )

    def test_same_seed_same_spec_byte_identical_records(self):
        assert self._chaos_run(11) == self._chaos_run(11)

    def test_chaos_actually_fired(self):
        records = self._chaos_run(11)
        assert "site-crash" in records[1]


class TestChaosRecoveryReplay:
    def test_crash_and_recovery_injects_checkpoint_replay(self):
        """On recovery from a crash the un-checkpointed window re-enters
        the input queues (EngineRuntime.inject_replay)."""
        run, rngs = make_run(no_adapt(), seed=13)
        _, state_site = stateful_stage(run)
        chaos = ChaosInjector(rngs.stream("chaos"))
        # Crash after the t=30 checkpoint round, recover at t=90.
        chaos.at(50.0, SiteCrash(state_site, duration_s=40.0))
        run.attach_chaos(chaos)
        run.run(120.0)
        assert not run.topology.site(state_site).failed
        assert run.replayed_source_equiv > 0.0
        # The replay window is bounded by the checkpoint that completed at
        # t=30: at most 20 s of work replays from each affected task.
        kinds = [f.kind for f in run.recorder.faults]
        assert kinds == ["site-crash", "site-crash:revert"]

    def test_checkpoint_rounds_skip_chaos_failed_sites(self):
        run, rngs = make_run(no_adapt(), seed=13)
        _, state_site = stateful_stage(run)
        chaos = ChaosInjector(rngs.stream("chaos"))
        chaos.at(50.0, SiteCrash(state_site, duration_s=40.0))
        run.attach_chaos(chaos)
        run.run(80.0)  # checkpoint round at t=60 happens mid-failure
        record = None
        for stage in run.runtime.plan.topological_stages():
            if stage.stateful:
                record = run.checkpoints.record(stage.name, state_site)
                if record is not None:
                    break
        # The t=60 round skipped the dead site, so its newest snapshot
        # predates the crash.
        assert record is not None
        assert record.taken_at_s < 50.0
