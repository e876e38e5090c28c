"""Ablation: relay routing for state migration (Section 2.2, [36]).

The controlled Section 8.7.1 migration moves 60 MB between edge sites whose
direct public-Internet paths are slow.  Routing the bulk transfer through
the best single relay (typically a data center with fast links to both
edges) can shrink the transition - the "to relay or not to relay" question
the paper cites, answered for the migration use case.
"""

from repro.baselines.variants import wasp
from repro.core.migration import MigrationStrategy
from repro.config import WaspConfig
from repro.experiments.scenarios import FIG13_STATE_MB, controlled_adaptation


def run_mode(relays: bool):
    # The WASP destination choice already lands on the best *direct* link,
    # where a relay rarely helps; the interesting case is a migration
    # forced over a weak path (here: the Distant destination), which the
    # relay largely rescues.
    config = WaspConfig.paper_defaults().with_overrides(
        migration_relays=relays
    )
    return controlled_adaptation(
        wasp(MigrationStrategy.DISTANT), FIG13_STATE_MB, config=config
    )


def test_ablation_relay_migration(bench_once):
    results = bench_once(
        lambda: {"direct": run_mode(False), "relayed": run_mode(True)}
    )
    print()
    print("Ablation: relay routing for a 60 MB migration over a weak "
          "edge-to-edge path")
    print(f"{'mode':>9} {'transition':>11} {'stabilize':>10} {'total':>8}")
    for name, b in results.items():
        stab = f"{b.stabilize_s:.1f}" if b.stabilize_s is not None else "-"
        print(f"{name:>9} {b.transition_s:11.1f} {stab:>10} {b.total_s:8.1f}")

    direct, relayed = results["direct"], results["relayed"]
    # Relaying never hurts the transition (it falls back to direct), and on
    # a weak direct path it recovers most of the loss.
    assert relayed.transition_s <= direct.transition_s + 1e-6
    assert relayed.transition_s < 0.9 * direct.transition_s
