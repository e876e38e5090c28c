"""Figure 13: network-aware state migration (Section 8.7.1).

A 60 MB stateful task is forcibly re-assigned at t=180; the migration
strategy picks the destination/mapping.  Paper: WASP's network-aware choice
yields 41-56% lower overhead than Random and Distant; No Migrate is nearly
instant but abandons the state (accuracy loss).
"""

from repro.experiments.figures import fig13_report
from repro.experiments.scenarios import (
    FIG13_STATE_MB,
    controlled_adaptation,
    migration_variants,
)


def test_fig13_state_migration(bench_once):
    breakdowns = bench_once(
        lambda: [
            controlled_adaptation(v, FIG13_STATE_MB)
            for v in migration_variants()
        ]
    )
    print()
    print(fig13_report(breakdowns))

    by_name = {b.variant: b for b in breakdowns}
    none, wasp = by_name["WASP/none"], by_name["WASP"]
    random_, distant = by_name["WASP/random"], by_name["WASP/distant"]

    # No Migrate: ~zero transition, but the state is lost.
    assert none.transition_s < 5.0
    assert none.state_lost_mb == FIG13_STATE_MB

    # Network awareness: WASP's overhead is lowest among migrating
    # strategies (paper: 41-56% lower than Random/Distant).
    assert wasp.state_lost_mb == 0.0
    assert wasp.total_s < random_.total_s
    assert wasp.total_s < distant.total_s
    assert wasp.total_s < 0.8 * distant.total_s

    # Distant (adversarial) is the worst mapping.
    assert distant.total_s >= random_.total_s

    # The cost shows up in the delay distribution too.
    assert wasp.p95_delay_s < distant.p95_delay_s
