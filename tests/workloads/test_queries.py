"""Tests for repro.workloads.queries - the Table 3 benchmark queries."""

import pytest

from repro.engine.logical import can_replace_preserving_state
from repro.engine.operators import OperatorKind
from repro.engine.physical import PhysicalPlan
from repro.workloads.queries import (
    all_queries,
    events_of_interest,
    topk_topics,
    ysb_advertising,
)


@pytest.fixture
def queries(testbed, rngs):
    return {q.name: q for q in all_queries(testbed, rngs.stream("query"))}


class TestInventory:
    def test_three_queries(self, queries):
        assert set(queries) == {
            "ysb-advertising", "topk-topics", "events-of-interest",
        }

    def test_table3_state_classes(self, queries):
        assert queries["ysb-advertising"].table3.state == "<10 MB"
        assert queries["topk-topics"].table3.state == "~100 MB"
        assert queries["events-of-interest"].table3.state == "0 MB"

    def test_statefulness(self, queries):
        assert queries["ysb-advertising"].stateful
        assert queries["topk-topics"].stateful
        assert not queries["events-of-interest"].stateful

    def test_every_query_has_eight_edge_sources(self, queries):
        for name in ("ysb-advertising", "topk-topics", "events-of-interest"):
            query = queries[name]
            edge_sources = [
                s for s in query.primary.sources()
                if s.pinned_site and s.pinned_site.startswith("edge-")
            ]
            assert len(edge_sources) == 8


class TestYsb:
    def test_operator_inventory(self, queries):
        """Table 3: filter, map, window, join."""
        kinds = {op.kind for op in queries["ysb-advertising"].primary}
        assert OperatorKind.FILTER in kinds
        assert OperatorKind.MAP in kinds
        assert OperatorKind.JOIN in kinds
        assert OperatorKind.WINDOW_AGGREGATE in kinds

    def test_total_state_under_10mb(self, queries):
        total = sum(
            op.state_mb
            for op in queries["ysb-advertising"].primary.stateful_operators()
        )
        assert total < 10.0

    def test_ten_second_windows(self, queries):
        windows = [
            op.window_s
            for op in queries["ysb-advertising"].primary
            if op.window_s > 0
        ]
        assert windows and all(w == 10.0 for w in windows)

    def test_single_variant(self, queries):
        assert len(queries["ysb-advertising"].variants) == 1


class TestTopK:
    def test_variants_enumerated(self, queries):
        assert len(queries["topk-topics"].variants) >= 3

    def test_variants_semantically_equivalent(self, queries):
        """Every grouping variant must produce the same sink rate."""
        query = queries["topk-topics"]
        rates = {
            name: query.workload.generation_rates([name], 0.0)[0]
            for name in query.workload.source_names
        }
        sink_rates = [
            variant.propagate_rates(rates)["sink"]
            for variant in query.variants
        ]
        # Normalization is exact when all branches are grouped with equal
        # partial selectivity (direct/continental/global); mixed groupings
        # with Zipf-skewed rates are approximate (documented in
        # aggregation_grouping_plans).
        for rate in sink_rates[1:]:
            assert rate == pytest.approx(sink_rates[0], rel=0.35)

    def test_variants_are_state_safe_switches(self, queries):
        query = queries["topk-topics"]
        for variant in query.variants[1:]:
            assert can_replace_preserving_state(query.primary, variant)

    def test_state_around_100mb(self, queries):
        total = sum(
            op.state_mb
            for op in queries["topk-topics"].primary.stateful_operators()
        )
        assert 50.0 <= total <= 150.0

    def test_thirty_second_windows(self, queries):
        windows = {
            op.window_s
            for op in queries["topk-topics"].primary
            if op.window_s > 0
        }
        assert windows == {30.0}

    def test_controlled_state_override(self, testbed, rngs):
        query = topk_topics(testbed, rngs.stream("q"), state_mb=512.0)
        win = query.primary.operators["win-country"]
        assert win.state_mb == 512.0


class TestEventsOfInterest:
    def test_fully_stateless(self, queries):
        assert queries["events-of-interest"].primary.stateful_operators() == []

    def test_operator_inventory(self, queries):
        kinds = {op.kind for op in queries["events-of-interest"].primary}
        assert OperatorKind.FILTER in kinds
        assert OperatorKind.UNION in kinds
        assert OperatorKind.PROJECT in kinds

    def test_all_variants_interchangeable(self, queries):
        query = queries["events-of-interest"]
        for variant in query.variants:
            assert can_replace_preserving_state(query.primary, variant)


class TestPhysicalMapping:
    def test_source_chains_absorb_filters(self, queries):
        """Filter pushdown via chaining: edge source stages carry the
        filters, so raw streams never cross the WAN."""
        for query in queries.values():
            physical = PhysicalPlan(query.primary)
            for stage in physical.source_stages():
                if stage.pinned_site and stage.pinned_site.startswith("edge-"):
                    assert stage.selectivity < 1.0
                    assert len(stage.operators) >= 2

    def test_stage_count_reasonable(self, queries):
        for query in queries.values():
            physical = PhysicalPlan(query.primary)
            # 8+ sources, >= 1 processing stage, 1 sink.
            assert 10 <= len(physical.stages) <= 20
