"""Tests for repro.engine.logical - plans, signatures, state safety."""

import pytest

from repro.engine.logical import LogicalPlan, can_replace_preserving_state
from repro.engine.operators import (
    filter_,
    join,
    sink,
    source,
    union,
    window_aggregate,
)
from repro.errors import CycleError, PlanError


def linear_plan(name="q"):
    ops = [
        source("src", "site-a"),
        filter_("flt", selectivity=0.5),
        window_aggregate("agg", window_s=10, selectivity=0.01, state_mb=5),
        sink("out"),
    ]
    edges = [("src", "flt"), ("flt", "agg"), ("agg", "out")]
    return LogicalPlan.from_edges(name, ops, edges)


class TestConstruction:
    def test_topological_order(self):
        plan = linear_plan()
        names = [op.name for op in plan.topological()]
        assert names == ["src", "flt", "agg", "out"]

    def test_upstream_downstream(self):
        plan = linear_plan()
        assert [o.name for o in plan.upstream("agg")] == ["flt"]
        assert [o.name for o in plan.downstream("flt")] == ["agg"]

    def test_sources_and_sinks(self):
        plan = linear_plan()
        assert [s.name for s in plan.sources()] == ["src"]
        assert [s.name for s in plan.sinks()] == ["out"]

    def test_stateful_operators(self):
        assert [o.name for o in linear_plan().stateful_operators()] == ["agg"]

    def test_contains(self):
        plan = linear_plan()
        assert "agg" in plan and "nope" not in plan

    def test_duplicate_operator_rejected(self):
        with pytest.raises(PlanError):
            LogicalPlan.from_edges(
                "q",
                [source("a", "x"), source("a", "x"), sink("out")],
                [("a", "out")],
            )

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(PlanError):
            LogicalPlan.from_edges(
                "q", [source("a", "x"), sink("out")], [("a", "zzz")]
            )

    def test_self_loop_rejected(self):
        with pytest.raises(PlanError):
            LogicalPlan.from_edges(
                "q", [source("a", "x"), sink("out")],
                [("a", "out"), ("out", "out")],
            )

    def test_cycle_rejected(self):
        ops = [
            source("a", "x"),
            filter_("f1", selectivity=1.0),
            filter_("f2", selectivity=1.0),
            sink("out"),
        ]
        edges = [("a", "f1"), ("f1", "f2"), ("f2", "f1"), ("f1", "out")]
        with pytest.raises((CycleError, PlanError)):
            LogicalPlan.from_edges("q", ops, edges)

    def test_source_with_inputs_rejected(self):
        ops = [source("a", "x"), source("b", "y"), sink("out")]
        with pytest.raises(PlanError):
            LogicalPlan.from_edges("q", ops, [("a", "b"), ("b", "out")])

    def test_dangling_operator_rejected(self):
        ops = [source("a", "x"), filter_("f", selectivity=1.0), sink("out")]
        with pytest.raises(PlanError):
            LogicalPlan.from_edges("q", ops, [("a", "out")])

    def test_plan_without_sink_rejected(self):
        with pytest.raises(PlanError):
            LogicalPlan.from_edges("q", [source("a", "x")], [])


class TestRatePropagation:
    def test_linear_selectivity_chain(self):
        plan = linear_plan()
        rates = plan.propagate_rates({"src": 1000.0})
        assert rates["flt"] == pytest.approx(500.0)
        assert rates["agg"] == pytest.approx(5.0)

    def test_fan_in_sums(self):
        ops = [
            source("a", "x"),
            source("b", "y"),
            union("u"),
            sink("out"),
        ]
        edges = [("a", "u"), ("b", "u"), ("u", "out")]
        plan = LogicalPlan.from_edges("q", ops, edges)
        rates = plan.propagate_rates({"a": 100.0, "b": 50.0})
        assert rates["u"] == pytest.approx(150.0)

    def test_plan_selectivity_unit(self):
        plan = linear_plan()
        assert plan.plan_selectivity() == pytest.approx(0.5 * 0.01)

    def test_plan_selectivity_weighted(self):
        """Weighted conversion: heavy sources dominate (YSB campaign fix)."""
        ops = [
            source("big", "x"),
            source("small", "y"),
            filter_("f", selectivity=0.5),
            union("u"),
            sink("out"),
        ]
        edges = [("big", "f"), ("f", "u"), ("small", "u"), ("u", "out")]
        plan = LogicalPlan.from_edges("q", ops, edges)
        heavy = plan.plan_selectivity({"big": 1000.0, "small": 0.0})
        assert heavy == pytest.approx(0.5)
        light = plan.plan_selectivity({"big": 0.0, "small": 1000.0})
        assert light == pytest.approx(1.0)

    def test_zero_weights_fall_back_to_unit(self):
        plan = linear_plan()
        assert plan.plan_selectivity({"src": 0.0}) == plan.plan_selectivity()


class TestSignatures:
    def test_same_structure_same_signature(self):
        a = linear_plan("a")
        b = linear_plan("b")
        assert a.subplan_signature("agg") == b.subplan_signature("agg")

    def test_different_upstream_different_signature(self):
        a = linear_plan()
        ops = [
            source("src", "site-b"),  # different pinned site
            filter_("flt", selectivity=0.5),
            window_aggregate("agg", window_s=10, selectivity=0.01, state_mb=5),
            sink("out"),
        ]
        b = LogicalPlan.from_edges(
            "b", ops, [("src", "flt"), ("flt", "agg"), ("agg", "out")]
        )
        assert a.subplan_signature("agg") != b.subplan_signature("agg")

    def test_signature_ignores_operator_name(self):
        """Signatures are structural: renaming an upstream operator that
        computes the same function must not change the signature."""
        ops = [
            source("src", "site-a"),
            filter_("renamed", selectivity=0.5),
            window_aggregate("agg", window_s=10, selectivity=0.01, state_mb=5),
            sink("out"),
        ]
        b = LogicalPlan.from_edges(
            "b", ops, [("src", "renamed"), ("renamed", "agg"), ("agg", "out")]
        )
        assert (
            linear_plan().subplan_signature("agg") == b.subplan_signature("agg")
        )

    def test_stateful_signatures_map(self):
        plan = linear_plan()
        signatures = {
            op.name: plan.subplan_signature(op.name)
            for op in plan.stateful_operators()
        }
        assert set(signatures) == {"agg"}


class TestStateSafety:
    """Section 4.3: switching plans must preserve stateful sub-plans."""

    @staticmethod
    def two_join_plan(name, join_left, *, windowed=False):
        """Join tree over sources a, b, c: (left pair) then join with rest."""
        window = 10.0 if windowed else 0.0
        remaining = ({"a", "b", "c"} - set(join_left)).pop()
        ops = [
            source("a", "site-a"),
            source("b", "site-b"),
            source("c", "site-c"),
            join(
                f"join{{{'+'.join(sorted(join_left))}}}",
                selectivity=1.0, state_mb=5, window_s=window,
            ),
            join("join{a+b+c}", selectivity=1.0, state_mb=5, window_s=window),
            sink("out"),
        ]
        first = f"join{{{'+'.join(sorted(join_left))}}}"
        edges = [
            (join_left[0], first),
            (join_left[1], first),
            (first, "join{a+b+c}"),
            (remaining, "join{a+b+c}"),
            ("join{a+b+c}", "out"),
        ]
        return LogicalPlan.from_edges(name, ops, edges)

    def test_incompatible_stateful_subplans_rejected(self):
        """sigma(A|><|B) cannot be recovered by sigma(B|><|C)."""
        ab = self.two_join_plan("p1", ("a", "b"))
        bc = self.two_join_plan("p2", ("b", "c"))
        assert not can_replace_preserving_state(ab, bc)

    def test_identical_stateful_subplans_accepted(self):
        ab1 = self.two_join_plan("p1", ("a", "b"))
        ab2 = self.two_join_plan("p2", ("a", "b"))
        assert can_replace_preserving_state(ab1, ab2)

    def test_window_boundary_exemption(self):
        """Windowed operators can switch at the window boundary."""
        ab = self.two_join_plan("p1", ("a", "b"), windowed=True)
        bc = self.two_join_plan("p2", ("b", "c"), windowed=True)
        assert can_replace_preserving_state(ab, bc)
        assert not can_replace_preserving_state(
            self.two_join_plan("p1", ("a", "b")),
            self.two_join_plan("p2", ("b", "c")),
        )

    def test_stateless_plans_always_replaceable(self):
        def stateless(name, mid):
            ops = [
                source("a", "x"),
                filter_(mid, selectivity=0.5),
                sink("out"),
            ]
            return LogicalPlan.from_edges(
                name, ops, [("a", mid), (mid, "out")]
            )

        assert can_replace_preserving_state(
            stateless("p1", "f1"), stateless("p2", "f2")
        )
