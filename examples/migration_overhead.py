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

from repro.experiments.figures import fig13_report, fig14_report
from repro.experiments.scenarios import (
    FIG13_STATE_MB,
    controlled_adaptation,
    fig14_rows,
    migration_variants,
)

#: The Figure 14 state sizes this walkthrough sweeps.
STATE_SIZES_MB = (0.0, 64.0, 256.0, 512.0)


def main() -> None:
    print("Part 1 - migration strategies (Figure 13):\n")
    breakdowns = [
        controlled_adaptation(variant, FIG13_STATE_MB)
        for variant in migration_variants()
    ]
    print(fig13_report(breakdowns))

    print("\nPart 2 - state partitioning (Figure 14):\n")
    print(fig14_report(fig14_rows(STATE_SIZES_MB)))


if __name__ == "__main__":
    main()
