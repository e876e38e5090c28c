"""Tests for repro.engine.state."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.state import StatePartition, StateStore
from repro.errors import StateError


class TestInitialization:
    def test_balanced_partitions(self):
        store = StateStore()
        store.initialize_stage("agg", 90.0, ["a", "b", "c"])
        assert store.total_mb("agg") == pytest.approx(90.0)
        assert all(
            p.size_mb == pytest.approx(30.0) for p in store.partitions("agg")
        )

    def test_empty_task_list(self):
        store = StateStore()
        store.initialize_stage("agg", 90.0, [])
        assert store.partitions("agg") == []

    def test_negative_total_rejected(self):
        with pytest.raises(StateError):
            StateStore().initialize_stage("agg", -1.0, ["a"])

    def test_negative_partition_rejected(self):
        with pytest.raises(StateError):
            StatePartition("agg", "a", -1.0)

    def test_duplicate_sites_allowed(self):
        """Two tasks at the same site hold two partitions there."""
        store = StateStore()
        store.initialize_stage("agg", 60.0, ["a", "a", "b"])
        assert store.mb_at_site("agg", "a") == pytest.approx(40.0)


class TestQueries:
    def test_sites(self):
        store = StateStore()
        store.initialize_stage("agg", 60.0, ["b", "a"])
        assert sorted(store.sites("agg")) == ["a", "b"]

    def test_mb_at_site_zero_for_absent(self):
        store = StateStore()
        store.initialize_stage("agg", 60.0, ["a"])
        assert store.mb_at_site("agg", "zzz") == 0.0

    def test_stage_names_sorted(self):
        store = StateStore()
        store.initialize_stage("z", 1.0, ["a"])
        store.initialize_stage("a", 1.0, ["a"])
        assert store.stage_names() == ["a", "z"]

    def test_unknown_stage_total_zero(self):
        assert StateStore().total_mb("nope") == 0.0


class TestMutations:
    def test_rebalance_preserves_total(self):
        store = StateStore()
        store.initialize_stage("agg", 60.0, ["a"])
        store.rebalance("agg", ["a", "b", "c"])
        assert store.total_mb("agg") == pytest.approx(60.0)
        assert len(store.partitions("agg")) == 3

    def test_set_total_mb(self):
        store = StateStore()
        store.initialize_stage("agg", 60.0, ["a", "b"])
        store.set_total_mb("agg", 120.0)
        assert store.mb_at_site("agg", "a") == pytest.approx(60.0)

    def test_set_total_on_empty_rejected(self):
        with pytest.raises(StateError):
            StateStore().set_total_mb("agg", 10.0)

    def test_drop_stage(self):
        store = StateStore()
        store.initialize_stage("agg", 60.0, ["a"])
        store.drop_stage("agg")
        assert store.total_mb("agg") == 0.0

    def test_drop_missing_stage_is_noop(self):
        StateStore().drop_stage("nope")


class TestInvariants:
    @given(
        st.floats(min_value=0.0, max_value=1e4),
        st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=8),
        st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=8),
    )
    def test_rebalance_conserves_mass(self, total, sites_before, sites_after):
        store = StateStore()
        store.initialize_stage("s", total, sites_before)
        store.rebalance("s", sites_after)
        assert store.total_mb("s") == pytest.approx(total)
        assert len(store.partitions("s")) == len(sites_after)

    @given(
        st.floats(min_value=0.1, max_value=1e4),
        st.integers(min_value=1, max_value=16),
    )
    def test_partitions_always_balanced(self, total, n_tasks):
        store = StateStore()
        store.initialize_stage("s", total, [f"site-{i}" for i in range(n_tasks)])
        sizes = [p.size_mb for p in store.partitions("s")]
        assert max(sizes) - min(sizes) < 1e-9
