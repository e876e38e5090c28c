"""End-to-end integration tests: the paper's adaptation narratives.

These run complete experiments (topology + query + controller + dynamics)
and assert the *qualitative* claims of Section 8 - who wins, in which
direction, with what side effects - not absolute numbers.
"""

import numpy as np
import pytest

from repro.baselines.variants import degrade, no_adapt, wasp
from repro.chaos.faults import SiteCrash
from repro.core.actions import ActionKind
from repro.experiments.harness import DynamicsSpec, ExperimentRun
from repro.experiments.scenarios import bottleneck_dynamics
from repro.network.traces import paper_testbed
from repro.sim.rng import RngRegistry
from repro.sim.schedule import Schedule
from repro.workloads.queries import topk_topics, ysb_advertising


def make_run(variant, *, seed=42, query_factory=ysb_advertising):
    rngs = RngRegistry(seed)
    topo = paper_testbed(rngs.stream("topology"))
    if query_factory is ysb_advertising:
        query = query_factory(topo)
    else:
        query = query_factory(topo, rngs.stream("query"))
    return ExperimentRun(topo, query, variant, rngs=rngs)


def mean_delay(recorder, lo, hi):
    series = recorder.delay_series()[lo:hi]
    series = series[~np.isnan(series)]
    return float(np.mean(series)) if len(series) else float("nan")


class TestWorkloadStep:
    """Section 8.4, first interval: rate doubles at t=300 (compressed to
    t=60 here for test speed)."""

    DYNAMICS = DynamicsSpec(
        workload_schedule=Schedule([(0.0, 1.0), (60.0, 2.0)])
    )

    def test_no_adapt_degrades(self):
        run = make_run(no_adapt())
        run.run(240, self.DYNAMICS)
        baseline = mean_delay(run.recorder, 30, 60)
        stressed = mean_delay(run.recorder, 180, 240)
        assert stressed > 5 * baseline

    def test_wasp_holds_latency(self):
        run = make_run(wasp())
        run.run(240, self.DYNAMICS)
        baseline = mean_delay(run.recorder, 30, 60)
        stressed = mean_delay(run.recorder, 180, 240)
        assert stressed < 3 * baseline
        assert run.manager.history  # it actually adapted

    def test_wasp_processes_everything(self):
        run = make_run(wasp())
        run.run(240, self.DYNAMICS)
        assert run.recorder.processed_fraction() == 1.0

    def test_degrade_holds_slo_by_dropping(self):
        run = make_run(degrade())
        run.run(300, self.DYNAMICS)
        stressed = mean_delay(run.recorder, 200, 300)
        assert stressed < 10.5  # the SLO
        assert run.recorder.total_dropped() > 0
        assert run.recorder.processed_fraction() < 1.0


class TestBandwidthDrop:
    """Section 8.4, second phase: all links halved."""

    DYNAMICS = DynamicsSpec(
        bandwidth_schedule=Schedule([(0.0, 1.0), (60.0, 0.5)])
    )

    def test_wasp_beats_no_adapt(self):
        adapted = make_run(wasp())
        adapted.run(300, self.DYNAMICS)
        static = make_run(no_adapt())
        static.run(300, self.DYNAMICS)
        assert mean_delay(adapted.recorder, 240, 300) < (
            mean_delay(static.recorder, 240, 300)
        )

    def test_wasp_recovers_ratio(self):
        run = make_run(wasp())
        run.run(300, self.DYNAMICS)
        ratio = run.recorder.processing_ratio_series()
        assert float(np.mean(ratio[260:300])) > 0.97


class TestScaleDownAfterRecovery:
    """Section 8.4/8.5: once dynamics subside, WASP releases resources."""

    def test_extra_slots_returned(self):
        dynamics = DynamicsSpec(
            workload_schedule=Schedule(
                [(0.0, 1.0), (50.0, 2.0), (200.0, 1.0)]
            )
        )
        run = make_run(wasp())
        run.run(600, dynamics)
        kinds = [r.kind for r in run.manager.history]
        if ActionKind.SCALE_OUT in kinds or ActionKind.SCALE_UP in kinds:
            assert ActionKind.SCALE_DOWN in kinds
            extra = run.recorder.extra_slots_series()
            assert extra[-1] <= max(extra)


class TestFailureRecovery:
    """Section 8.6: total resource revocation for 60 s."""

    DYNAMICS = DynamicsSpec(
        faults=[(60.0, SiteCrash(None, duration_s=60.0))]
    )

    def test_nothing_flows_during_failure(self):
        run = make_run(no_adapt())
        run.run(100, self.DYNAMICS)
        processed = [s.processed for s in run.recorder.samples[70:100]]
        assert sum(processed) == 0.0

    def test_wasp_drains_backlog_after_recovery(self):
        run = make_run(wasp(), query_factory=topk_topics)
        run.run(500, self.DYNAMICS)
        # Well after recovery the delay is back near baseline.
        late = mean_delay(run.recorder, 450, 500)
        baseline = mean_delay(run.recorder, 30, 60)
        assert late < 3 * baseline
        assert run.recorder.processed_fraction() == 1.0

    def test_wasp_recovers_faster_than_no_adapt(self):
        adapted = make_run(wasp(), query_factory=topk_topics)
        adapted.run(400, self.DYNAMICS)
        static = make_run(no_adapt(), query_factory=topk_topics)
        static.run(400, self.DYNAMICS)
        assert mean_delay(adapted.recorder, 300, 400) < (
            mean_delay(static.recorder, 300, 400)
        )

    def test_degrade_drops_during_recovery(self):
        run = make_run(degrade(), query_factory=topk_topics)
        run.run(300, self.DYNAMICS)
        assert run.recorder.processed_fraction() < 1.0


class TestFullSection84Timeline:
    """One full Figure 8/9 run at paper scale (slow but definitive)."""

    @pytest.mark.slow
    def test_reopt_handles_both_dynamics(self):
        run = make_run(wasp())
        run.run(1500, bottleneck_dynamics())
        recorder = run.recorder
        # Mean delay in every interval stays within 4x the baseline.
        baseline = mean_delay(recorder, 100, 300)
        for lo, hi in ((400, 600), (700, 900), (1000, 1200), (1300, 1500)):
            assert mean_delay(recorder, lo, hi) < 4 * baseline
        assert recorder.processed_fraction() == 1.0
        kinds = {r.kind for r in run.manager.history}
        assert kinds & {
            ActionKind.REASSIGN, ActionKind.SCALE_OUT, ActionKind.SCALE_UP,
        }
