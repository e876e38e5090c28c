"""Ablation: long-term dynamics handling (Section 6.2).

"WASP can also be extended to handle long-term dynamics (e.g., daily
workload shift).  This type of dynamics usually follows a specific pattern
and can be predicted.  Thus, WASP will handle this differently by
periodically re-evaluating the query plan in the background."

This benchmark runs the Top-K query through several compressed diurnal
cycles with an amplified day/night swing and compares reactive-only WASP
against WASP with the background loop attached.  Both must stay lossless;
the report shows how the background loop's proactive re-plans change the
adaptation mix.
"""

from repro.baselines.variants import wasp, wasp_long_term
from repro.core.actions import ActionKind
from repro.experiments.scenarios import launch, quiet_dynamics
from repro.network.traces import paper_testbed
from repro.sim.rng import RngRegistry
from repro.workloads.queries import topk_topics
from repro.workloads.twitter import TwitterSpec

DURATION_S = 1500.0
#: Strong diurnal pattern: 3x day/night over a 600 s compressed cycle.
SPEC = TwitterSpec(mean_rate_eps=17_000.0, day_length_s=600.0,
                   day_night_ratio=3.0)


def run_variant(variant):
    rngs = RngRegistry(42)
    topology = paper_testbed(rngs.stream("topology"))
    query = topk_topics(topology, rngs.stream("query"), SPEC)
    run = launch(query, variant, topology=topology, seed=42)
    run.run(DURATION_S, quiet_dynamics())
    return run


def test_ablation_longterm(bench_once):
    runs = bench_once(
        lambda: {v.name: run_variant(v) for v in (wasp(), wasp_long_term())}
    )
    print()
    print("Ablation: long-term dynamics (3x diurnal swing, 600 s cycle)")
    print(f"{'variant':>16} {'mean':>7} {'p95':>7} {'p99':>8} "
          f"{'reactive acts':>14} {'proactive re-plans':>19}")
    for name, run in runs.items():
        proactive = (
            len(run.long_term.history) if run.long_term is not None else 0
        )
        reactive = len(run.manager.history) - proactive
        rec = run.recorder
        print(
            f"{name:>16} {rec.mean_delay():7.2f} "
            f"{rec.delay_percentile(95):7.2f} "
            f"{rec.delay_percentile(99):8.2f} {reactive:14d} {proactive:19d}"
        )

    reactive_run = runs["WASP"]
    longterm_run = runs["WASP/long-term"]

    # Both stay lossless through the cycles.
    assert reactive_run.recorder.processed_fraction() == 1.0
    assert longterm_run.recorder.processed_fraction() == 1.0

    # The background loop never makes things materially worse, and its
    # proactive re-plans (if any) happen through the long-term path.
    assert longterm_run.recorder.mean_delay() <= (
        2.0 * reactive_run.recorder.mean_delay() + 1.0
    )
    if longterm_run.long_term.history:
        assert all(
            r.kind is ActionKind.REPLAN
            for r in longterm_run.long_term.history
        )
