#!/usr/bin/env python
"""Section 8.7 in action: the cost of moving operator state over the WAN.

Part 1 (Figure 13): a task with 60 MB of state is forcibly re-assigned at
t=180; the migration strategy decides where the state goes.  WASP's
network-aware minmax choice is compared against Random, Distant
(adversarial) and No Migrate (abandon the state - fast but lossy).

Part 2 (Figure 14): sweeping the state size shows why WASP scales out and
*partitions* large state instead of moving it whole: each |state|/p' slice
crosses a different link in parallel, capping the slowest transfer near the
t_max threshold.

Run:  python examples/migration_overhead.py
"""

from repro.baselines.variants import wasp
from repro.experiments.figures import fig13_report, fig14_report, measure_overhead
from repro.experiments.scenarios import (
    FIG13_STATE_MB,
    MIGRATION_RUN_DURATION_S,
    MIGRATION_TRIGGER_AT_S,
    build_migration_run,
    force_partitioned_adaptation,
    force_reassignment,
    migration_variants,
)


def run_controlled(variant, state_mb: float, *, partitioned: bool = False):
    """One controlled-adaptation run; returns (run, overhead breakdown)."""
    run = build_migration_run(variant, state_mb)
    run.run(MIGRATION_TRIGGER_AT_S)
    if partitioned:
        force_partitioned_adaptation(run)
        destination = "+".join(
            run.runtime.plan.stage("win-country").sites()
        )
    else:
        destination = force_reassignment(run)
    run.run(MIGRATION_RUN_DURATION_S - MIGRATION_TRIGGER_AT_S)
    record = run.manager.history[-1]
    return run, measure_overhead(run, record, destination=destination)


def main() -> None:
    print("Part 1 - migration strategies (Figure 13):\n")
    breakdowns = []
    for variant in migration_variants():
        _, breakdown = run_controlled(variant, FIG13_STATE_MB)
        breakdowns.append(breakdown)
    print(fig13_report(breakdowns))

    print("\nPart 2 - state partitioning (Figure 14):\n")
    rows = []
    for size in (0.0, 64.0, 256.0, 512.0):
        for mode, partitioned in (("Default", False), ("Partitioned", True)):
            _, breakdown = run_controlled(
                wasp(), size, partitioned=partitioned
            )
            rows.append((mode, size, breakdown))
    print(fig14_report(rows))


if __name__ == "__main__":
    main()
