"""Ablation: gradual vs aggressive scale-down (Section 4.2).

The paper "opt[s] to gradually reduce the parallelism by 1 per iteration to
prioritize performance stability over resource utilization" because an
aggressive reduction risks a workload spike right after.  This ablation
runs a workload spike -> lull -> spike pattern and compares the default
one-step scale-down against an aggressive waste threshold that tears
capacity down faster.
"""

from repro.baselines.variants import wasp
from repro.config import WaspConfig
from repro.core.actions import ActionKind
from repro.experiments.harness import DynamicsSpec
from repro.experiments.scenarios import launch
from repro.sim.schedule import Schedule

#: spike -> lull -> spike
SPIKY = Schedule.steps(200.0, [1.0, 2.0, 1.0, 2.0, 1.0])
DURATION_S = 1000.0


def run_policy(waste_utilization: float):
    config = WaspConfig.paper_defaults().with_overrides(
        waste_utilization=waste_utilization
    )
    run = launch("topk-topics", wasp(), config=config, seed=42)
    run.run(DURATION_S, DynamicsSpec(workload_schedule=SPIKY))
    return run


def test_ablation_scaledown(bench_once):
    runs = bench_once(
        lambda: {
            "conservative (0.5)": run_policy(0.5),
            "aggressive (0.85)": run_policy(0.85),
        }
    )
    print()
    print("Ablation: scale-down aggressiveness under a spiky workload")
    print(f"{'policy':>20} {'mean delay':>11} {'p95':>8} "
          f"{'scale-downs':>12} {'re-scale-ups':>13}")
    for name, run in runs.items():
        kinds = [r.kind for r in run.manager.history]
        downs = sum(1 for k in kinds if k is ActionKind.SCALE_DOWN)
        ups = sum(
            1 for k in kinds
            if k in (ActionKind.SCALE_UP, ActionKind.SCALE_OUT)
        )
        rec = run.recorder
        print(
            f"{name:>20} {rec.mean_delay():11.2f} "
            f"{rec.delay_percentile(95):8.2f} {downs:12d} {ups:13d}"
        )

    # Both settings stay lossless; the run documents churn for inspection.
    for run in runs.values():
        assert run.recorder.processed_fraction() == 1.0
    # The conservative (paper) setting never oscillates more than the
    # aggressive one on scale-downs.
    kinds_cons = [
        r.kind for r in runs["conservative (0.5)"].manager.history
    ]
    kinds_aggr = [
        r.kind for r in runs["aggressive (0.85)"].manager.history
    ]
    downs_cons = sum(1 for k in kinds_cons if k is ActionKind.SCALE_DOWN)
    downs_aggr = sum(1 for k in kinds_aggr if k is ActionKind.SCALE_DOWN)
    assert downs_cons <= downs_aggr + 2
