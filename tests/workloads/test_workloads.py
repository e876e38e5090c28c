"""Tests for repro.workloads - base, YSB and Twitter models."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.schedule import Schedule
from repro.workloads.base import ShapedWorkload
from repro.workloads.twitter import TwitterSpec, TwitterWorkload
from repro.workloads.ysb import YsbSpec, YsbWorkload


def spatial_weights(workload: TwitterWorkload) -> dict[str, float]:
    """Fraction of total base load per source (sums to 1)."""
    rates = {
        name: workload.base_rate_eps(name) for name in workload.source_names
    }
    total = sum(rates.values())
    return {name: rate / total for name, rate in rates.items()}


class TestShapedWorkload:
    def test_base_rates(self):
        workload = ShapedWorkload({"a": 100.0, "b": 200.0})
        assert workload.generation_rates(["a"], 0.0)[0] == 100.0
        assert workload.generation_rates(["b"], 0.0)[0] == 200.0

    def test_factor_schedule_applies(self):
        workload = ShapedWorkload({"a": 100.0})
        workload.set_factor_schedule(Schedule([(0.0, 1.0), (300.0, 2.0)]))
        assert workload.generation_rates(["a"], 100.0)[0] == 100.0
        assert workload.generation_rates(["a"], 400.0)[0] == 200.0

    def test_unknown_source_is_zero(self):
        workload = ShapedWorkload({"a": 1.0})
        assert workload.generation_rates(["zzz"], 0.0) == [0.0]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ShapedWorkload({})

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            ShapedWorkload({"a": -1.0})

    def test_source_names_sorted(self):
        workload = ShapedWorkload({"z": 1.0, "a": 1.0})
        assert workload.source_names == ["a", "z"]


class TestYsb:
    def make(self):
        return YsbWorkload(
            ["ads@e1", "ads@e2"], "campaigns@dc", YsbSpec(rate_eps=10_000.0)
        )

    def test_uniform_ad_rates(self):
        """Section 8.3: YSB data distributed evenly across edges."""
        workload = self.make()
        assert workload.generation_rates(["ads@e1"], 0.0)[0] == 10_000.0
        assert workload.generation_rates(["ads@e2"], 0.0)[0] == 10_000.0

    def test_campaign_stream_is_a_trickle(self):
        workload = self.make()
        assert workload.generation_rates(["campaigns@dc"], 0.0)[0] < 1_000.0

    def test_factor_applies_to_ads_only(self):
        """Section 8.4's rate steps double the ad workload, not the
        campaign-metadata control stream."""
        workload = self.make()
        workload.set_factor_schedule(Schedule.constant(2.0))
        assert workload.generation_rates(["ads@e1"], 0.0)[0] == 20_000.0
        assert workload.generation_rates(["campaigns@dc"], 0.0)[0] == (
            YsbSpec().campaign_update_eps
        )


class TestTwitter:
    def make(self, seed=0, **spec_kwargs):
        sources = [f"tweets@e{i}" for i in range(8)]
        return TwitterWorkload(
            sources, np.random.default_rng(seed), TwitterSpec(**spec_kwargs)
        )

    def test_total_rate_matches_mean(self):
        workload = self.make(mean_rate_eps=10_000.0)
        total = sum(map(workload.base_rate_eps, workload.source_names))
        assert total == pytest.approx(80_000.0)

    def test_spatial_skew(self):
        """Twitter workload is spatially skewed (Section 2.2)."""
        weights = spatial_weights(self.make())
        assert max(weights.values()) > 1.3 * min(weights.values())

    def test_weights_sum_to_one(self):
        weights = spatial_weights(self.make())
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_diurnal_cycle_two_to_one(self):
        """Day hours carry ~2x the night workload (Section 2.2)."""
        workload = self.make(day_length_s=1000.0)
        source = workload.source_names[0]
        rates = [
            workload.generation_rates([source], t)[0]
            for t in range(0, 1000, 10)
        ]
        assert max(rates) / min(rates) == pytest.approx(2.0, rel=0.05)

    def test_phases_roll_around_globe(self):
        workload = self.make(day_length_s=1000.0)
        t_peak = {}
        for source in workload.source_names[:3]:
            rates = {
                t: workload.shape(source, t) for t in range(0, 1000, 10)
            }
            t_peak[source] = max(rates, key=rates.get)
        assert len(set(t_peak.values())) > 1

    def test_reproducible(self):
        a = spatial_weights(self.make(seed=3))
        b = spatial_weights(self.make(seed=3))
        assert a == b

    def test_different_seed_different_geography(self):
        a = spatial_weights(self.make(seed=1))
        b = spatial_weights(self.make(seed=2))
        assert a != b

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            TwitterSpec(mean_rate_eps=0.0)
        with pytest.raises(ConfigurationError):
            TwitterSpec(day_night_ratio=0.5)
