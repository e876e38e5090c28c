"""Tests for repro.planner.enumerate - plan-variant enumeration."""

import pytest

from repro.engine.logical import can_replace_preserving_state
from repro.engine.operators import filter_, join, sink, source, window_aggregate
from repro.errors import PlanError
from repro.planner.enumerate import (
    aggregation_grouping_plans,
    branch_from_ops,
    enumerate_join_trees,
    join_tree_plans,
)


def make_branches(keys):
    branches = []
    for key in keys:
        src = source(f"src@{key}", key, event_bytes=100)
        flt = filter_(f"flt@{key}", selectivity=0.5, event_bytes=100)
        branches.append(branch_from_ops(key, [src, flt]))
    return branches


def join_factory(name, leaves):
    return join(name, selectivity=1.0, state_mb=2.0 * len(leaves),
                window_s=10.0)


class TestJoinTrees:
    @pytest.mark.parametrize("k,count", [(2, 1), (3, 3), (4, 15)])
    def test_double_factorial_counts(self, k, count):
        keys = [f"s{i}" for i in range(k)]
        assert len(enumerate_join_trees(keys)) == count

    def test_single_input_rejected(self):
        with pytest.raises(PlanError):
            enumerate_join_trees(["a"])

    def test_canonical_names_by_leaf_set(self):
        trees = enumerate_join_trees(["b", "a"])
        assert trees[0].canonical_name() == "join{a+b}"

    def test_subtrees_children_first(self):
        trees = enumerate_join_trees(["a", "b", "c"])
        for tree in trees:
            nodes = tree.subtrees()
            assert nodes[-1].leaves == frozenset({"a", "b", "c"})


class TestJoinTreePlans:
    def test_plans_are_valid(self):
        plans = join_tree_plans(
            "q", make_branches(["a", "b", "c"]), join_factory
        )
        assert len(plans) == 3
        for plan in plans:
            assert len(plan.sources()) == 3
            assert len(plan.sinks()) == 1

    def test_shared_subsets_share_operator_names(self):
        plans = join_tree_plans(
            "q", make_branches(["a", "b", "c"]), join_factory
        )
        roots = {"join{a+b+c}"}
        for plan in plans:
            assert roots & set(plan.operators)

    def test_same_subset_same_signature_across_plans(self):
        """join{a+b} in two different bracketings is the same sub-plan."""
        plans = join_tree_plans(
            "q", make_branches(["a", "b", "c", "d"]), join_factory
        )
        with_ab = [p for p in plans if "join{a+b}" in p]
        assert len(with_ab) >= 2
        sigs = {p.subplan_signature("join{a+b}") for p in with_ab}
        assert len(sigs) == 1

    def test_windowed_plans_interchange(self):
        plans = join_tree_plans(
            "q", make_branches(["a", "b", "c"]), join_factory
        )
        assert can_replace_preserving_state(plans[0], plans[1])

    def test_max_variants_cap(self):
        plans = join_tree_plans(
            "q", make_branches(["a", "b", "c", "d"]), join_factory,
            max_variants=5,
        )
        assert len(plans) == 5

    def test_duplicate_branch_keys_rejected(self):
        branches = make_branches(["a"]) + make_branches(["a"])
        with pytest.raises(PlanError):
            join_tree_plans("q", branches, join_factory)

    def test_non_canonical_factory_name_rejected(self):
        def bad_factory(name, leaves):
            return join("wrong-name", selectivity=1.0, state_mb=1.0)

        with pytest.raises(PlanError):
            join_tree_plans("q", make_branches(["a", "b"]), bad_factory)


def partial_factory(name, members):
    return window_aggregate(
        name, window_s=30, selectivity=0.1, state_mb=2.0, event_bytes=100
    )


class TestAggregationGroupings:
    def final_ops(self):
        return [
            window_aggregate(
                "final", window_s=30, selectivity=0.05, state_mb=50,
                event_bytes=100,
            )
        ]

    def test_direct_grouping_has_no_partials(self):
        branches = make_branches(["a", "b", "c", "d"])
        plans = aggregation_grouping_plans(
            "q", branches, [[["a"], ["b"], ["c"], ["d"]]], partial_factory,
            self.final_ops(),
        )
        assert not any("pre{" in name for name in plans[0].operators)

    def test_grouped_plan_has_canonical_partials(self):
        branches = make_branches(["a", "b", "c", "d"])
        plans = aggregation_grouping_plans(
            "q", branches, [[["a", "b"], ["c", "d"]]], partial_factory,
            self.final_ops(),
        )
        assert "pre{a+b}" in plans[0] and "pre{c+d}" in plans[0]

    def test_incomplete_partition_rejected(self):
        branches = make_branches(["a", "b"])
        with pytest.raises(PlanError):
            aggregation_grouping_plans(
                "q", branches, [[["a"]]], partial_factory, self.final_ops()
            )

    def test_selectivity_normalized_across_variants(self):
        """Every variant must produce the same sink rate (equivalence)."""
        branches = make_branches(["a", "b", "c", "d"])
        groupings = [
            [["a"], ["b"], ["c"], ["d"]],
            [["a", "b"], ["c", "d"]],
            [["a", "b", "c", "d"]],
        ]
        plans = aggregation_grouping_plans(
            "q", branches, groupings, partial_factory, self.final_ops()
        )
        rates = {f"src@{k}": 1000.0 for k in ("a", "b", "c", "d")}
        sink_rates = [p.propagate_rates(rates)["sink"] for p in plans]
        for rate in sink_rates[1:]:
            assert rate == pytest.approx(sink_rates[0], rel=1e-9)
