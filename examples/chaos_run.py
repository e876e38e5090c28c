#!/usr/bin/env python
"""Kill a site while a state migration is in flight, watch WASP recover.

The chaos harness (`repro.chaos`) schedules deterministic faults against a
running experiment.  Here a `SiteCrash` is armed on the mid-adaptation
trigger point MIGRATION_IN_FLIGHT: the instant the controller starts
shipping operator state to the destination site, chaos kills that site.

The transactional controller rolls the half-applied adaptation back to the
pre-action snapshot (slots, placement, state ownership, queues), then falls
through the Figure-6 technique chain — retry against re-measured bandwidth,
scale-out with state partitioning, abandon state — until one attempt
commits.  Because every fault draws from a seeded RNG stream, re-running
this script reproduces the timeline byte-for-byte.

Run:  python examples/chaos_run.py [--trace-out trace.jsonl]

With ``--trace-out`` the run also writes a structured JSONL trace of the
whole episode (rounds, attempts, rollbacks, migrations, chaos faults);
render it with ``python -m repro trace trace.jsonl``.
"""

import argparse

from repro.api import launch
from repro.baselines.variants import wasp
from repro.chaos import ChaosInjector, SiteCrash
from repro.core.actions import ReassignAction
from repro.core.transaction import AdaptationPoint

SEED = 11


def pick_migration(run):
    """A deployed stateful stage and a fresh destination with free slots."""
    for stage in run.runtime.plan.topological_stages():
        if stage.stateful and stage.parallelism > 0:
            placement = stage.placement()
            for name, free in sorted(run.topology.available_slots().items()):
                if free > 0 and name not in placement:
                    return stage, name
    raise SystemExit("query has no movable stateful stage")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a JSONL adaptation trace of the chaos episode",
    )
    args = parser.parse_args(argv)

    run = launch("ysb-advertising", wasp(), seed=SEED)
    if args.trace_out:
        run.attach_trace(args.trace_out)
    stage, destination = pick_migration(run)
    print(f"stateful stage  : {stage.name} at {sorted(stage.placement())}")
    print(f"migration target: {destination}  (chaos will crash it)\n")

    # Arm the fault: crash the destination the moment state is in flight,
    # bring it back 60 s later so recovery shows up in the timeline too.
    chaos = ChaosInjector(run.rngs.stream("chaos"))
    chaos.at_point(
        AdaptationPoint.MIGRATION_IN_FLIGHT,
        SiteCrash(destination, duration_s=60.0),
        stage=stage.name,
    )
    run.attach_chaos(chaos)

    run.run(10.0)
    record = run.manager.execute(
        ReassignAction(stage.name, "operator move", {destination: 1}),
        now_s=10.0,
    )

    print("attempt chain:")
    for attempt in run.manager.attempt_log:
        print(
            f"  t={attempt.t_s:6.1f}s  {attempt.attempt:<10}"
            f" {attempt.outcome:<12} {attempt.detail}"
        )
    committed = record.attempt if record is not None else "none (abandoned)"
    print(f"committed attempt: {committed}")
    print(f"final placement  : {run.runtime.plan.stage(stage.name).placement()}")

    # Keep running past the fault window: the site recovers at ~t=70.
    # Because the rollback restored ownership before any state landed on
    # the doomed site, recovery has nothing to replay and nothing dropped.
    run.run(110.0)

    print("\nfault timeline:")
    for fault in run.recorder.faults:
        print(f"  t={fault.t_s:6.1f}s  {fault.kind:<18} {fault.detail}")

    print("\nadaptation log (rollbacks and fallbacks included):")
    for event in run.recorder.adaptations:
        print(f"  t={event.t_s:6.1f}s  {event.action:<22} {event.detail}")

    print(f"\nreplayed source-equivalent events: {run.replayed_source_equiv:.0f}")
    print(f"events dropped                   : {run.recorder.total_dropped():.0f}")

    run.obs.close()
    if args.trace_out:
        print(f"\ntrace written to {args.trace_out}")
        print(f"render it with: python -m repro trace {args.trace_out}")


if __name__ == "__main__":
    main()
