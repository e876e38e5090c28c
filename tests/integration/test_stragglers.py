"""Straggler mitigation: the Section-1 dynamic the evaluation implies.

A straggling site keeps its slots but runs them several times slower; the
metric monitor sees the stage's processing rate fall below its expected
input, diagnosis classifies it compute-bound, and the policy adds capacity
or moves the work - no data is dropped.
"""

import numpy as np
import pytest

from repro.baselines.variants import no_adapt, wasp
from repro.chaos.faults import Straggler
from repro.errors import TopologyError
from repro.experiments.harness import DynamicsSpec, ExperimentRun
from repro.network.site import Site, SiteKind
from repro.network.traces import paper_testbed
from repro.sim.rng import RngRegistry
from repro.workloads.queries import ysb_advertising


def make_run(variant, seed=42):
    rngs = RngRegistry(seed)
    topo = paper_testbed(rngs.stream("topology"))
    query = ysb_advertising(topo)
    return ExperimentRun(topo, query, variant, rngs=rngs)


def mean_delay(recorder, lo, hi):
    series = recorder.delay_series()[lo:hi]
    series = series[~np.isnan(series)]
    return float(np.mean(series)) if len(series) else float("nan")


class TestSiteSlowdown:
    def test_slowdown_scales_effective_rate(self):
        site = Site("s", SiteKind.DATA_CENTER, 4, proc_rate_eps=40_000.0)
        site.set_slowdown(4.0)
        assert site.effective_proc_rate_eps == pytest.approx(10_000.0)

    def test_restore(self):
        site = Site("s", SiteKind.DATA_CENTER, 4)
        site.set_slowdown(4.0)
        site.set_slowdown(1.0)
        assert site.effective_proc_rate_eps == site.proc_rate_eps

    def test_speedup_rejected(self):
        site = Site("s", SiteKind.DATA_CENTER, 4)
        with pytest.raises(TopologyError):
            site.set_slowdown(0.5)


class TestStragglerDriver:
    def test_slowdown_applied_and_lifted(self):
        run = make_run(no_adapt())
        victim = run.runtime.plan.stage("join{ads+campaigns}").sites()[0]
        run.set_dynamics(
            DynamicsSpec(
                faults=[
                    (5.0, Straggler(victim, slowdown=8.0, duration_s=10.0))
                ]
            )
        )
        run.run(10)
        assert run.topology.site(victim).slowdown == 8.0
        run.run(10)  # to t = 20 > 15
        assert run.topology.site(victim).slowdown == 1.0


class TestStragglerMitigation:
    def straggler_dynamics(self, run, slowdown=8.0):
        victim = run.runtime.plan.stage("join{ads+campaigns}").sites()[0]
        return DynamicsSpec(
            faults=[
                (60.0, Straggler(victim, slowdown=slowdown, duration_s=540.0))
            ]
        )

    def test_no_adapt_suffers(self):
        run = make_run(no_adapt())
        run.run(400, self.straggler_dynamics(run))
        baseline = mean_delay(run.recorder, 30, 60)
        straggling = mean_delay(run.recorder, 300, 400)
        assert straggling > 3 * baseline

    def test_wasp_mitigates(self):
        run = make_run(wasp())
        run.run(400, self.straggler_dynamics(run))
        baseline = mean_delay(run.recorder, 30, 60)
        late = mean_delay(run.recorder, 300, 400)
        assert late < 3 * baseline
        assert run.manager.history  # the controller acted
        assert run.recorder.processed_fraction() == 1.0

    def test_wasp_beats_no_adapt_under_straggler(self):
        adapted = make_run(wasp())
        adapted.run(400, self.straggler_dynamics(adapted))
        static = make_run(no_adapt())
        static.run(400, self.straggler_dynamics(static))
        assert mean_delay(adapted.recorder, 300, 400) < (
            mean_delay(static.recorder, 300, 400)
        )
