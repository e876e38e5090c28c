"""Property-based tests: operator chaining is semantics-preserving."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.logical import LogicalPlan
from repro.engine.operators import (
    OperatorKind,
    OperatorSpec,
    filter_,
    sink,
    source,
    window_aggregate,
)
from repro.engine.physical import PhysicalPlan

chain_specs = st.lists(
    st.tuples(
        st.sampled_from(["filter", "map"]),
        st.floats(min_value=0.05, max_value=1.0),  # selectivity
        st.floats(min_value=0.1, max_value=3.0),  # cost
    ),
    min_size=0,
    max_size=5,
)


def build_linear_plan(specs):
    """source -> [narrow ops] -> window -> sink."""
    ops = [source("src", "site-a", event_bytes=200)]
    edges = []
    prev = "src"
    for i, (kind, sel, cost) in enumerate(specs):
        name = f"op{i}"
        if kind == "filter":
            ops.append(filter_(name, selectivity=sel, cost=cost,
                               event_bytes=100))
        else:
            ops.append(OperatorSpec(name, OperatorKind.MAP, selectivity=sel,
                                    cost=cost, event_bytes=100))
        edges.append((prev, name))
        prev = name
    ops.append(
        window_aggregate("agg", window_s=10, selectivity=0.1, state_mb=1)
    )
    edges.append((prev, "agg"))
    ops.append(sink("out"))
    edges.append(("agg", "out"))
    return LogicalPlan.from_edges("q", ops, edges)


class TestChainingInvariants:
    @given(chain_specs)
    @settings(max_examples=100)
    def test_chained_selectivity_is_product(self, specs):
        plan = build_linear_plan(specs)
        physical = PhysicalPlan(plan)
        src_stage = physical.stage("src")
        expected = 1.0
        for _, sel, _ in specs:
            expected *= sel
        assert src_stage.selectivity == pytest.approx(expected)

    @given(chain_specs, st.floats(min_value=1.0, max_value=1e5))
    @settings(max_examples=100)
    def test_stage_rates_invariant_under_chaining(self, specs, rate):
        """Expected rates at the window/sink are identical whether the
        narrow operators run fused or as separate stages."""
        plan = build_linear_plan(specs)
        chained = PhysicalPlan(plan, chaining=True)
        unchained = PhysicalPlan(plan, chaining=False)
        rates_c = chained.expected_stage_rates({"src": rate})
        rates_u = unchained.expected_stage_rates({"src": rate})
        assert rates_c["agg"]["input"] == pytest.approx(
            rates_u["agg"]["input"]
        )
        assert rates_c["out"]["input"] == pytest.approx(
            rates_u["out"]["input"]
        )

    @given(chain_specs)
    @settings(max_examples=100)
    def test_chained_cost_never_exceeds_sum(self, specs):
        """Selectivity discounting: a chained stage's per-ingested-event
        cost is at most the naive sum of operator costs."""
        plan = build_linear_plan(specs)
        physical = PhysicalPlan(plan)
        stage = physical.stage("src")
        naive = sum(op.cost for op in stage.operators)
        assert stage.cost <= naive + 1e-9

    @given(chain_specs)
    @settings(max_examples=50)
    def test_every_operator_lands_in_exactly_one_stage(self, specs):
        plan = build_linear_plan(specs)
        physical = PhysicalPlan(plan)
        seen = []
        for stage in physical.topological_stages():
            seen.extend(op.name for op in stage.operators)
        assert sorted(seen) == sorted(plan.operators)
