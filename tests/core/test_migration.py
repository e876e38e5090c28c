"""Tests for repro.core.migration - network-aware state migration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.migration import (
    MigrationPlan,
    MigrationStrategy,
    Transfer,
    estimate_transition_s,
    plan_migration,
    rebalance_transfers,
)
from repro.errors import MigrationError


def bandwidth_table(table, default=10.0):
    def lookup(src, dst):
        return table.get((src, dst), default)

    return lookup


class TestTransfer:
    def test_duration(self):
        transfer = Transfer("agg", "a", "b", size_mb=60.0, bandwidth_mbps=12.0)
        assert transfer.duration_s == pytest.approx(40.0)  # 480 Mb / 12

    def test_zero_size_is_instant(self):
        assert Transfer("agg", "a", "b", 0.0, 1.0).duration_s == 0.0

    def test_zero_bandwidth_is_infinite(self):
        assert math.isinf(Transfer("agg", "a", "b", 1.0, 0.0).duration_s)


class TestMinmaxMapping:
    def test_single_partition_best_link(self):
        bw = bandwidth_table({("a", "x"): 1.0, ("a", "y"): 100.0})
        plan = plan_migration(
            "agg", {"a": 60.0}, ["x", "y"], bw,
            strategy=MigrationStrategy.WASP,
        )
        assert plan.transfers[0].to_site == "y"

    def test_minmax_is_optimal_versus_bruteforce(self):
        """WASP's mapping must achieve the brute-force minmax optimum."""
        rng = np.random.default_rng(0)
        for _ in range(20):
            sources = {f"s{i}": float(rng.uniform(10, 200)) for i in range(4)}
            destinations = [f"d{i}" for i in range(4)]
            table = {
                (s, d): float(rng.uniform(1, 100))
                for s in sources
                for d in destinations
            }
            bw = bandwidth_table(table)
            plan = plan_migration(
                "agg", sources, destinations, bw,
                strategy=MigrationStrategy.WASP,
            )
            best = min(
                max(
                    sources[s] * 8.0 / table[(s, destinations[j])]
                    for s, j in zip(sorted(sources), perm)
                )
                for perm in itertools.permutations(range(4))
            )
            assert plan.transition_s == pytest.approx(best)

    def test_distant_is_worst_mapping(self):
        bw = bandwidth_table({("a", "x"): 1.0, ("a", "y"): 100.0})
        plan = plan_migration(
            "agg", {"a": 60.0}, ["x", "y"], bw,
            strategy=MigrationStrategy.DISTANT,
        )
        assert plan.transfers[0].to_site == "x"

    def test_random_requires_rng(self):
        bw = bandwidth_table({})
        with pytest.raises(MigrationError):
            plan_migration(
                "agg", {"a": 1.0}, ["x"], bw,
                strategy=MigrationStrategy.RANDOM,
            )

    def test_random_uses_rng(self):
        bw = bandwidth_table({})
        plan = plan_migration(
            "agg", {"a": 1.0}, ["x", "y"], bw,
            strategy=MigrationStrategy.RANDOM,
            rng=np.random.default_rng(0),
        )
        assert plan.transfers[0].to_site in ("x", "y")

    def test_none_abandons_state(self):
        plan = plan_migration(
            "agg", {"a": 60.0}, ["x"], bandwidth_table({}),
            strategy=MigrationStrategy.NONE,
        )
        assert plan.transfers == ()
        assert plan.state_abandoned_mb == 60.0
        assert plan.transition_s == 0.0

    def test_insufficient_destinations_rejected(self):
        with pytest.raises(MigrationError):
            plan_migration(
                "agg", {"a": 1.0, "b": 1.0}, ["x"], bandwidth_table({})
            )

    def test_empty_migration(self):
        plan = plan_migration("agg", {}, ["x"], bandwidth_table({}))
        assert plan.transition_s == 0.0

    def test_large_instance_uses_greedy(self):
        sources = {f"s{i}": 10.0 for i in range(9)}
        destinations = [f"d{i}" for i in range(9)]
        plan = plan_migration(
            "agg", sources, destinations, bandwidth_table({}, default=10.0)
        )
        assert len(plan.transfers) == 9

    def test_total_mb(self):
        plan = plan_migration(
            "agg", {"a": 30.0, "b": 20.0}, ["x", "y"], bandwidth_table({})
        )
        assert plan.total_mb == pytest.approx(50.0)


class TestTransitionEstimate:
    def test_matches_wasp_plan(self):
        bw = bandwidth_table({("a", "x"): 10.0})
        estimate = estimate_transition_s("agg", {"a": 60.0}, ["x"], bw)
        assert estimate == pytest.approx(48.0)

    def test_zero_without_state(self):
        assert estimate_transition_s("agg", {}, ["x"], bandwidth_table({})) == 0

    def test_infinite_without_destinations(self):
        assert math.isinf(
            estimate_transition_s("agg", {"a": 1.0}, [], bandwidth_table({}))
        )


class TestRebalance:
    def test_scale_out_splits_state(self):
        """Partitioning: each new site pulls |state|/p' over its own link."""
        plan = rebalance_transfers(
            "agg",
            {"a": 90.0},
            {"a": 30.0, "b": 30.0, "c": 30.0},
            bandwidth_table({}, default=10.0),
        )
        assert plan.total_mb == pytest.approx(60.0)
        assert {t.to_site for t in plan.transfers} == {"b", "c"}
        # The slowest transfer moves 30 MB, not the full 90.
        assert plan.transition_s == pytest.approx(24.0)

    def test_partitioning_reduces_transition(self):
        """Section 8.7.2's core claim."""
        bw = bandwidth_table({}, default=10.0)
        whole = rebalance_transfers("agg", {"a": 90.0}, {"b": 90.0}, bw)
        split = rebalance_transfers(
            "agg", {"a": 90.0}, {"b": 30.0, "c": 30.0, "d": 30.0}, bw
        )
        assert split.transition_s < whole.transition_s

    def test_scale_down_merges_state(self):
        plan = rebalance_transfers(
            "agg",
            {"a": 30.0, "b": 30.0},
            {"a": 60.0},
            bandwidth_table({}, default=10.0),
        )
        assert plan.total_mb == pytest.approx(30.0)
        assert plan.transfers[0].from_site == "b"

    def test_tied_slices_ship_in_site_order(self):
        # Equal excess at six sites: they ship in name order, whatever
        # the hash seed makes of a set of their names.
        sites = ["f", "b", "d", "a", "e", "c"]
        plan = rebalance_transfers(
            "agg",
            {site: 30.0 for site in sites},
            {"z": 180.0},
            bandwidth_table({}, default=10.0),
        )
        assert [t.from_site for t in plan.transfers] == sorted(sites)

    def test_wasp_prefers_fast_destination(self):
        bw = bandwidth_table({("a", "b"): 100.0, ("a", "c"): 1.0})
        plan = rebalance_transfers(
            "agg", {"a": 60.0}, {"b": 30.0, "c": 30.0}, bw,
            strategy=MigrationStrategy.WASP,
        )
        assert plan.transfers[0].to_site == "b"

    def test_none_strategy_abandons(self):
        plan = rebalance_transfers(
            "agg", {"a": 60.0}, {"b": 60.0}, bandwidth_table({}),
            strategy=MigrationStrategy.NONE,
        )
        assert plan.state_abandoned_mb == pytest.approx(60.0)

    def test_noop_when_layout_unchanged(self):
        plan = rebalance_transfers(
            "agg", {"a": 60.0}, {"a": 60.0}, bandwidth_table({})
        )
        assert plan.transfers == ()

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.floats(min_value=0.0, max_value=500.0),
            min_size=1,
        ),
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d", "e"]),
            st.floats(min_value=0.0, max_value=500.0),
            min_size=1,
        ),
    )
    @settings(max_examples=100)
    def test_transfers_conserve_mass(self, before, target):
        """Whatever the layouts, shipped volume equals total deficit volume
        (bounded by the total excess)."""
        plan = rebalance_transfers(
            "agg", before, target, bandwidth_table({}, default=10.0)
        )
        eps = 1e-6
        excess = sum(
            max(0.0, before.get(s, 0.0) - target.get(s, 0.0))
            for s in set(before) | set(target)
        )
        deficit = sum(
            max(0.0, target.get(s, 0.0) - before.get(s, 0.0))
            for s in set(before) | set(target)
        )
        assert plan.total_mb <= excess + eps
        assert plan.total_mb == pytest.approx(min(excess, deficit), abs=1e-4)


class TestZeroBandwidthRejection:
    """A collapsed link must surface as MigrationError, never as a silent
    infinite transfer baked into the minmax / overhead estimate."""

    def test_plan_migration_rejects_dead_only_link(self):
        bw = bandwidth_table({("a", "x"): 0.0}, default=0.0)
        with pytest.raises(MigrationError):
            plan_migration("agg", {"a": 10.0}, ["x"], bw)

    def test_plan_migration_routes_around_dead_link(self):
        """With a live alternative the minmax search avoids the dead pair."""
        bw = bandwidth_table({("a", "x"): 0.0, ("a", "y"): 10.0}, default=0.0)
        plan = plan_migration("agg", {"a": 10.0}, ["x", "y"], bw)
        assert plan.transfers[0].to_site == "y"
        assert math.isfinite(plan.transition_s)

    def test_random_strategy_rejects_dead_pick(self):
        bw = bandwidth_table({}, default=0.0)
        with pytest.raises(MigrationError):
            plan_migration(
                "agg", {"a": 10.0}, ["x"], bw,
                strategy=MigrationStrategy.RANDOM,
                rng=np.random.default_rng(0),
            )

    def test_greedy_large_instance_rejects_dead_links(self):
        moved_out = {f"s{i}": 10.0 for i in range(9)}  # > 7: greedy path
        moved_in = [f"d{i}" for i in range(9)]
        with pytest.raises(MigrationError):
            plan_migration(
                "agg", moved_out, moved_in, bandwidth_table({}, default=0.0)
            )

    def test_rebalance_rejects_zero_bandwidth(self):
        with pytest.raises(MigrationError):
            rebalance_transfers(
                "agg", {"a": 60.0}, {"b": 60.0},
                bandwidth_table({}, default=0.0),
            )

    def test_rebalance_none_strategy_unaffected(self):
        """Abandoning state needs no bandwidth, so NONE still succeeds."""
        plan = rebalance_transfers(
            "agg", {"a": 60.0}, {"b": 60.0},
            bandwidth_table({}, default=0.0),
            strategy=MigrationStrategy.NONE,
        )
        assert plan.state_abandoned_mb == pytest.approx(60.0)

    def test_estimate_maps_dead_links_to_inf(self):
        """The policy's t_adapt estimate degrades to inf (rejected by the
        t_max check) rather than raising out of the decision loop."""
        estimate = estimate_transition_s(
            "agg", {"a": 10.0}, ["x"], bandwidth_table({}, default=0.0)
        )
        assert math.isinf(estimate)
