"""Tests for repro.engine.operators."""

import pytest

from repro.engine.operators import (
    OperatorKind,
    OperatorSpec,
    filter_,
    join,
    map_,
    project,
    sink,
    source,
    top_k,
    union,
    window_aggregate,
)
from repro.errors import PlanError


class TestDefaults:
    def test_window_aggregate_is_stateful_by_default(self):
        op = window_aggregate("w", window_s=10, selectivity=0.1, state_mb=5)
        assert op.stateful

    def test_join_is_stateful_by_default(self):
        assert join("j", selectivity=1.0, state_mb=5).stateful

    def test_filter_is_stateless(self):
        assert not filter_("f", selectivity=0.5).stateful

    def test_source_pinned(self):
        assert source("s", "site-1").pinned_site == "site-1"

    def test_sink_not_splittable_by_default(self):
        """Section 6.2: splitting a sink requires a plan change."""
        assert not sink("out").splittable

    def test_source_cheap_by_default(self):
        assert source("s", "x").cost < 1.0


class TestChainability:
    def test_filter_chainable(self):
        assert filter_("f", selectivity=0.5).chainable

    def test_map_chainable(self):
        assert map_("m").chainable

    def test_project_chainable(self):
        assert project("p", event_bytes=50).chainable

    def test_window_not_chainable(self):
        op = window_aggregate("w", window_s=10, selectivity=0.1, state_mb=1)
        assert not op.chainable

    def test_union_not_chainable(self):
        assert not union("u").chainable


class TestValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(PlanError):
            OperatorSpec("", OperatorKind.MAP)

    def test_negative_selectivity_rejected(self):
        with pytest.raises(PlanError):
            OperatorSpec("x", OperatorKind.FILTER, selectivity=-0.1)

    def test_zero_cost_rejected(self):
        with pytest.raises(PlanError):
            OperatorSpec("x", OperatorKind.MAP, cost=0.0)

    def test_zero_event_bytes_rejected(self):
        with pytest.raises(PlanError):
            OperatorSpec("x", OperatorKind.MAP, event_bytes=0.0)

    def test_negative_state_rejected(self):
        with pytest.raises(PlanError):
            OperatorSpec("x", OperatorKind.JOIN, state_mb=-1.0)

    def test_source_without_site_rejected(self):
        with pytest.raises(PlanError):
            OperatorSpec("x", OperatorKind.SOURCE)

    def test_non_source_with_site_rejected(self):
        with pytest.raises(PlanError):
            OperatorSpec("x", OperatorKind.MAP, pinned_site="a")

    def test_stateful_source_rejected(self):
        with pytest.raises(PlanError):
            OperatorSpec(
                "x", OperatorKind.SOURCE, pinned_site="a", stateful=True
            )

    def test_negative_window_rejected(self):
        with pytest.raises(PlanError):
            OperatorSpec("x", OperatorKind.WINDOW_AGGREGATE, window_s=-1)


class TestHelpers:
    def test_top_k_selectivity_small(self):
        op = top_k("t", k=10, window_s=30, state_mb=8)
        assert 0 < op.selectivity <= 0.1

    def test_is_source_is_sink(self):
        assert source("s", "x").is_source
        assert sink("k").is_sink
        assert not filter_("f", selectivity=1.0).is_source

    def test_specs_are_frozen(self):
        op = map_("m")
        with pytest.raises(Exception):
            op.cost = 2.0  # type: ignore[misc]
