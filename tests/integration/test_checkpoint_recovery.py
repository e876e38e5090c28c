"""Checkpoint-interval vs recovery-cost (Section 5's localized snapshots).

Work processed since the last local checkpoint is lost with a failure and
replayed after recovery.  The replay window is bounded by the checkpoint
interval, so the interval becomes a live trade-off: frequent snapshots cost
(real systems') overhead, sparse snapshots cost recovery time.
"""

import numpy as np
import pytest

from repro.baselines.variants import no_adapt, wasp
from repro.chaos.faults import SiteCrash
from repro.config import WaspConfig
from repro.experiments.harness import DynamicsSpec, ExperimentRun
from repro.network.traces import paper_testbed
from repro.sim.rng import RngRegistry
from repro.workloads.queries import ysb_advertising

FAILURE = DynamicsSpec(faults=[(100.0, SiteCrash(None, duration_s=30.0))])


def make_run(variant, checkpoint_interval_s=30.0, seed=42):
    config = WaspConfig.paper_defaults().with_overrides(
        checkpoint_interval_s=checkpoint_interval_s
    )
    rngs = RngRegistry(seed)
    topo = paper_testbed(rngs.stream("topology"))
    query = ysb_advertising(topo)
    return ExperimentRun(topo, query, variant, config=config, rngs=rngs)


class TestReplayInjection:
    def test_recovery_injects_replay_backlog(self):
        run = make_run(no_adapt())
        run.set_dynamics(FAILURE)
        run.run(99)
        # Snapshot the backlog just before the failure and just after
        # recovery: the replayed events appear on top of the queued ones.
        run.run(32)  # to t = 131; failure over at t = 130
        backlog_after = run.runtime.total_backlog()
        generated_during_failure = 30.0 * 8 * 10_000.0
        # Replay adds the un-checkpointed pre-failure work on top of the
        # externally accumulated events.
        assert backlog_after > 0.6 * generated_during_failure

    def test_failed_sites_keep_stale_snapshots(self):
        run = make_run(no_adapt())
        run.set_dynamics(FAILURE)
        run.run(160)
        # Every stateful stage still has a checkpoint record somewhere.
        for stage in run.runtime.plan.topological_stages():
            if stage.stateful:
                assert any(
                    run.checkpoints.record(stage.name, site)
                    for site in stage.sites()
                )

    def test_replayed_events_carry_old_ages(self):
        """Replay raises post-recovery delay above the no-replay floor."""
        run = make_run(no_adapt())
        run.set_dynamics(FAILURE)
        run.run(200)
        delay = run.recorder.delay_series()
        post = delay[140:170]
        post = post[~np.isnan(post)]
        # Replayed events were generated before t=100, so delays exceed
        # the failure duration.
        assert float(np.max(post)) > 30.0

    def test_eventually_drains(self):
        run = make_run(wasp())
        run.set_dynamics(FAILURE)
        run.run(500)
        assert run.runtime.total_backlog() < 1000.0
        assert run.recorder.processed_fraction() == 1.0


class TestIntervalTradeOff:
    def test_sparser_checkpoints_cost_more_recovery(self):
        """Replay volume grows with the checkpoint interval."""
        def replay_peak(interval_s):
            run = make_run(no_adapt(), checkpoint_interval_s=interval_s)
            run.set_dynamics(FAILURE)
            run.run(131)  # to t = 131 (single call from t = 0)
            return run.runtime.total_backlog()

        # Failure hits at t=100: a 7 s cadence has snapshotted at t=98
        # (2 s replay window), a 60 s cadence at t=60 (40 s window).
        frequent = replay_peak(7.0)
        sparse = replay_peak(60.0)
        assert sparse > frequent + 100_000.0
