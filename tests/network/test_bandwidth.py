"""Tests for repro.network.bandwidth - the Figure 2 process."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.network import bandwidth
from repro.network.bandwidth import (
    BandwidthProcess,
    BandwidthStats,
    oregon_ohio_trace,
    thirty_minute_rollup,
)


class _NpClipProcess(BandwidthProcess):
    """The original ``step`` (``np.clip`` clamp), kept as the oracle."""

    def step(self) -> float:
        noise = self._rng.normal(0.0, self._sigma)
        value = self._mean + bandwidth.PHI * (self._value - self._mean) + noise
        if self._rng.random() < bandwidth.DIP_PROBABILITY:
            value -= bandwidth.DIP_DEPTH * self._mean * self._rng.random()
        self._value = float(np.clip(value, self._floor, 2.0 * self._mean))
        return self._value


class TestClampOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_step_matches_np_clip(self, seed, monkeypatch):
        # Heavy noise and frequent deep dips so both clamp bounds bind.
        monkeypatch.setattr(bandwidth, "SIGMA_FRAC", 0.9)
        monkeypatch.setattr(bandwidth, "DIP_PROBABILITY", 0.5)
        monkeypatch.setattr(bandwidth, "DIP_DEPTH", 0.95)
        fast = BandwidthProcess(np.random.default_rng(seed), 100.0)
        oracle = _NpClipProcess(np.random.default_rng(seed), 100.0)
        trace = fast.trace(500)
        expected = oracle.trace(500)
        assert trace.tolist() == expected.tolist()
        assert trace.min() == 5.0 and trace.max() == 200.0


class TestProcess:
    def test_stays_positive(self):
        process = BandwidthProcess(np.random.default_rng(0), 100.0)
        trace = process.trace(1000)
        assert (trace > 0).all()

    def test_bounded_above(self):
        process = BandwidthProcess(np.random.default_rng(0), 100.0)
        trace = process.trace(1000)
        assert trace.max() <= 200.0

    def test_mean_reverts_to_configured_mean(self):
        process = BandwidthProcess(np.random.default_rng(0), 100.0)
        trace = process.trace(5000)
        assert 60.0 < trace.mean() < 130.0

    def test_reproducible(self):
        a = BandwidthProcess(np.random.default_rng(7), 100.0).trace(50)
        b = BandwidthProcess(np.random.default_rng(7), 100.0).trace(50)
        assert np.allclose(a, b)

    def test_exhibits_dips(self):
        """Figure 2 shows occasional deep dips from topology changes."""
        process = BandwidthProcess(np.random.default_rng(3), 100.0)
        trace = process.trace(288)
        assert trace.min() < 0.5 * trace.mean()

    def test_invalid_mean_rejected(self):
        with pytest.raises(ConfigurationError):
            BandwidthProcess(np.random.default_rng(0), 0.0)

    def test_zero_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            BandwidthProcess(np.random.default_rng(0), 100.0).trace(0)


class TestFigure2Statistics:
    def test_one_day_trace_length(self):
        trace = oregon_ohio_trace(np.random.default_rng(0))
        assert len(trace) == 288  # 24 h at 5-minute samples

    def test_deviation_band_matches_paper(self):
        """The paper reports 25%..93% deviation from the mean."""
        trace = oregon_ohio_trace(np.random.default_rng(0))
        stats = BandwidthStats.from_trace(trace)
        assert stats.max_deviation > 0.25  # high variability present
        assert stats.max_deviation < 1.5  # but not absurd

    def test_rollup_averages_six_samples(self):
        trace = np.arange(12, dtype=float)
        rollup = thirty_minute_rollup(trace)
        assert len(rollup) == 2
        assert rollup[0] == pytest.approx(np.mean(np.arange(6)))

    def test_rollup_drops_partial_interval(self):
        assert len(thirty_minute_rollup(np.arange(10, dtype=float))) == 1

    def test_rollup_empty_for_short_trace(self):
        assert len(thirty_minute_rollup(np.arange(5, dtype=float))) == 0

    def test_stats_fields(self):
        trace = np.array([50.0, 100.0, 150.0])
        stats = BandwidthStats.from_trace(trace)
        assert stats.mean_mbps == pytest.approx(100.0)
        assert stats.min_mbps == 50.0
        assert stats.max_mbps == 150.0
        assert stats.max_deviation == pytest.approx(0.5)
