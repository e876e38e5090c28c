"""Ablation: straggler mitigation (the Section-1 dynamic).

The paper lists stragglers among the dynamics WASP targets but does not
dedicate a figure to them; this benchmark closes that gap.  A site hosting
the YSB join is slowed 8x for nine minutes; WASP's per-site diagnosis spots
the imbalance (the slow site cannot drain its balanced share even though
aggregate capacity looks fine) and moves the work off the straggler.
"""

from repro.baselines.variants import no_adapt, wasp
from repro.chaos.faults import Straggler
from repro.experiments.figures import segment_mean
from repro.experiments.harness import DynamicsSpec
from repro.experiments.scenarios import launch

DURATION_S = 500.0


def run_variant(variant):
    run = launch("ysb-advertising", variant, seed=42)
    victim = run.runtime.plan.stage("join{ads+campaigns}").sites()[0]
    dynamics = DynamicsSpec(
        faults=[(60.0, Straggler(victim, slowdown=8.0, duration_s=540.0))]
    )
    run.run(DURATION_S, dynamics)
    return run


def test_ablation_stragglers(bench_once):
    runs = bench_once(
        lambda: {v.name: run_variant(v) for v in (no_adapt(), wasp())}
    )
    print()
    print("Ablation: straggler mitigation (join site slowed 8x at t=60)")
    print(f"{'variant':>10} {'baseline':>9} {'straggling':>11} "
          f"{'p95':>8} {'actions':>8}")
    for name, run in runs.items():
        delay = run.recorder.delay_series()
        print(
            f"{name:>10} {segment_mean(delay, 30, 60):9.2f} "
            f"{segment_mean(delay, 300, 500):11.2f} "
            f"{run.recorder.delay_percentile(95):8.2f} "
            f"{len(run.manager.history) if run.manager else 0:8d}"
        )

    static, adapted = runs["No Adapt"], runs["WASP"]
    baseline = segment_mean(adapted.recorder.delay_series(), 30, 60)

    # The static run suffers; WASP moves work off the straggler and
    # returns near baseline without dropping events.
    assert segment_mean(static.recorder.delay_series(), 300, 500) > (
        3 * baseline
    )
    assert segment_mean(adapted.recorder.delay_series(), 300, 500) < (
        3 * baseline
    )
    assert adapted.manager.history
    assert adapted.recorder.processed_fraction() == 1.0
