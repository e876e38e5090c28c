"""Ablation: checkpoint interval vs recovery cost (Section 5).

WASP checkpoints state locally every 30 s (Section 8.3).  The interval is a
live trade-off: on failure, a task restores from its last local snapshot
and must replay everything it processed since, so sparser snapshots mean
more replay work and a longer recovery tail.  This sweep injects the
Section-8.6 total failure under several checkpoint cadences.
"""

import numpy as np

from repro.baselines.variants import wasp
from repro.chaos.faults import SiteCrash
from repro.config import WaspConfig
from repro.experiments.figures import segment_mean
from repro.experiments.harness import DynamicsSpec, ExperimentRun
from repro.network.traces import paper_testbed
from repro.sim.rng import RngRegistry
from repro.workloads.queries import topk_topics

INTERVALS_S = (5.0, 30.0, 120.0)
FAILURE = DynamicsSpec(faults=[(240.0, SiteCrash(None, duration_s=60.0))])
DURATION_S = 700.0


def run_interval(interval_s: float):
    config = WaspConfig.paper_defaults().with_overrides(
        checkpoint_interval_s=interval_s
    )
    rngs = RngRegistry(42)
    topology = paper_testbed(rngs.stream("topology"))
    query = topk_topics(topology, rngs.stream("query"))
    run = ExperimentRun(topology, query, wasp(), config=config, rngs=rngs)
    run.run(DURATION_S, FAILURE)
    return run


def test_ablation_checkpoint_interval(bench_once):
    runs = bench_once(lambda: {i: run_interval(i) for i in INTERVALS_S})
    print()
    print("Ablation: checkpoint interval vs failure-recovery cost "
          "(total failure 240-300 s)")
    print(f"{'interval':>9} {'recovery delay 320-450':>23} "
          f"{'p99':>8} {'mean':>7}")
    for interval, run in runs.items():
        delay = run.recorder.delay_series()
        print(
            f"{interval:8.0f}s {segment_mean(delay, 320, 450):23.2f} "
            f"{run.recorder.delay_percentile(99):8.2f} "
            f"{run.recorder.mean_delay():7.2f}"
        )

    # Every cadence recovers losslessly.
    for run in runs.values():
        assert run.recorder.processed_fraction() == 1.0

    # Sparser snapshots replay more work: the recovery stretch can only
    # get worse as the interval grows.
    recovery = {
        interval: segment_mean(run.recorder.delay_series(), 320, 450)
        for interval, run in runs.items()
    }
    assert recovery[120.0] >= recovery[5.0] * 0.99
