"""Tests for repro.config."""

from dataclasses import fields

import pytest

from repro.baselines.variants import DEGRADE_SLO_S
from repro.config import WaspConfig
from repro.errors import ConfigurationError


class TestPaperDefaults:
    def test_alpha_is_point_eight(self):
        assert WaspConfig.paper_defaults().alpha == 0.8

    def test_p_max_is_three(self):
        assert WaspConfig.paper_defaults().p_max == 3

    def test_monitor_interval_forty_seconds(self):
        assert WaspConfig.paper_defaults().monitor_interval_s == 40.0

    def test_checkpoint_interval_thirty_seconds(self):
        assert WaspConfig.paper_defaults().checkpoint_interval_s == 30.0

    def test_slo_ten_seconds(self):
        assert DEGRADE_SLO_S == 10.0


class TestValidation:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5])
    def test_alpha_out_of_range_rejected(self, alpha):
        with pytest.raises(ConfigurationError):
            WaspConfig(alpha=alpha)

    @pytest.mark.parametrize("alpha", [0.01, 0.5, 0.8, 0.99])
    def test_alpha_in_range_accepted(self, alpha):
        assert WaspConfig(alpha=alpha).alpha == alpha

    def test_p_max_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            WaspConfig(p_max=0)

    def test_negative_t_max_rejected(self):
        with pytest.raises(ConfigurationError):
            WaspConfig(t_max_s=-1.0)

    def test_zero_monitor_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            WaspConfig(monitor_interval_s=0)

    def test_zero_checkpoint_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            WaspConfig(checkpoint_interval_s=0)

    def test_waste_utilization_one_rejected(self):
        with pytest.raises(ConfigurationError):
            WaspConfig(waste_utilization=1.0)

    def test_negative_estimation_error_rejected(self):
        with pytest.raises(ConfigurationError):
            WaspConfig(estimation_error=-0.1)


class TestOverrides:
    def test_with_overrides_changes_field(self):
        config = WaspConfig.paper_defaults().with_overrides(alpha=0.5)
        assert config.alpha == 0.5

    def test_with_overrides_keeps_other_fields(self):
        config = WaspConfig.paper_defaults().with_overrides(alpha=0.5)
        assert config.p_max == WaspConfig.paper_defaults().p_max

    def test_with_overrides_revalidates(self):
        with pytest.raises(ConfigurationError):
            WaspConfig.paper_defaults().with_overrides(alpha=2.0)

    @pytest.mark.parametrize(
        "name",
        [
            "bogus",
            # Removed settings: an old artifact naming one must fail loudly.
            "slo_s",
            "scale_down_step",
            "max_scale_out_per_round",
            "reconfig_base_overhead_s",
            "replan_deploy_overhead_s",
            "replan_cooldown_s",
            "dense_age_buckets",
            "tick_s",
        ],
    )
    def test_with_overrides_rejects_unknown_field(self, name):
        with pytest.raises(ConfigurationError, match=name):
            WaspConfig.paper_defaults().with_overrides(**{name: 0})

    def test_config_is_frozen(self):
        config = WaspConfig.paper_defaults()
        with pytest.raises(AttributeError):
            config.alpha = 0.5  # type: ignore[misc]


class TestOptionSurface:
    def test_field_set_is_pinned(self):
        """Every field has a production caller or is a paper parameter
        (DESIGN section 5); a setting nobody varies is a constant beside
        its reader."""
        assert [f.name for f in fields(WaspConfig)] == [
            "alpha",
            "p_max",
            "t_max_s",
            "monitor_interval_s",
            "checkpoint_interval_s",
            "waste_utilization",
            "estimation_error",
            "migration_relays",
            "engine_backend",
            "seed",
        ]
