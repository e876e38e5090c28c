"""Tests for repro.baselines.variants."""

import pytest

from repro.baselines.variants import (
    ALL_NAMED,
    DEGRADE_SLO_S,
    VariantSpec,
    degrade,
    no_adapt,
    reassign_only,
    replan_only,
    scale_only,
    wasp,
)
from repro.core.migration import MigrationStrategy
from repro.errors import ConfigurationError


class TestSpecs:
    def test_no_adapt_neither_adapts_nor_degrades(self):
        spec = no_adapt()
        assert not spec.adapts
        assert spec.degrade_slo_s is None

    def test_degrade_default_slo_matches_paper(self):
        assert degrade().degrade_slo_s == DEGRADE_SLO_S == 10.0

    def test_degrade_never_adapts(self):
        assert not degrade().adapts

    def test_degrade_with_adaptation_rejected(self):
        with pytest.raises(ConfigurationError):
            VariantSpec(name="x", adapts=True, degrade_slo_s=10.0)

    def test_invalid_slo_rejected(self):
        with pytest.raises(ConfigurationError):
            VariantSpec(name="x", adapts=False, degrade_slo_s=0.0)

    def test_reassign_only_mode(self):
        spec = reassign_only()
        assert spec.mode.allow_reassign
        assert not spec.mode.allow_scale
        assert not spec.mode.allow_replan

    def test_scale_only_mode(self):
        spec = scale_only()
        assert spec.mode.allow_reassign and spec.mode.allow_scale
        assert not spec.mode.allow_replan

    def test_replan_only_mode(self):
        spec = replan_only()
        assert spec.mode.allow_replan
        assert not spec.mode.allow_scale

    def test_wasp_enables_everything(self):
        spec = wasp()
        assert spec.mode.allow_reassign
        assert spec.mode.allow_scale
        assert spec.mode.allow_replan
        assert spec.migration_strategy is MigrationStrategy.WASP

    def test_wasp_migration_variants_named(self):
        assert wasp(MigrationStrategy.RANDOM).name == "WASP/random"
        assert wasp(MigrationStrategy.NONE).name == "WASP/none"
        assert wasp().name == "WASP"

    def test_all_named_registry(self):
        assert {"No Adapt", "Degrade", "Re-assign", "Scale", "Re-plan",
                "WASP"} <= set(ALL_NAMED)
