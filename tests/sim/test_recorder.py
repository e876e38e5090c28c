"""Tests for repro.sim.recorder."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.actions import ActionKind
from repro.core.controller import AdaptationRecord
from repro.core.transaction import AttemptRecord
from repro.sim.recorder import RunRecorder, TickSample


def make_sample(t, delay=1.0, processed=100.0, offered=100.0, dropped=0.0,
                parallelism=4, extra=0):
    """``record_tick``'s arguments, in :class:`TickSample` field order."""
    return (t, delay, processed, offered, dropped, parallelism, extra)


class TestColumns:
    def test_samples_are_views_of_the_recorded_values(self):
        recorder = RunRecorder()
        rows = [
            make_sample(1.0, delay=float("nan"), processed=0.0, extra=-1),
            make_sample(2.0, delay=0.1 + 0.2, offered=1e-300, parallelism=7),
        ]
        for row in rows:
            recorder.record_tick(*row)
        samples = recorder.samples
        assert all(isinstance(s, TickSample) for s in samples)
        # repr is exact and tells float from int.
        assert [repr(dataclasses.astuple(s)) for s in samples] == [
            repr(row) for row in rows
        ]
        # Each read builds fresh views; later ticks do not change them.
        recorder.record_tick(*make_sample(3.0))
        assert len(samples) == 2 and len(recorder.samples) == 3


class TestSeries:
    def test_times(self):
        recorder = RunRecorder()
        for t in (1.0, 2.0, 3.0):
            recorder.record_tick(*make_sample(t))
        assert list(recorder.times()) == [1.0, 2.0, 3.0]

    def test_delay_series_preserves_nan(self):
        recorder = RunRecorder()
        recorder.record_tick(*make_sample(1.0, delay=float("nan"), processed=0))
        recorder.record_tick(*make_sample(2.0, delay=5.0))
        series = recorder.delay_series()
        assert math.isnan(series[0]) and series[1] == 5.0

    def test_parallelism_series(self):
        recorder = RunRecorder()
        recorder.record_tick(*make_sample(1.0, parallelism=3))
        recorder.record_tick(*make_sample(2.0, parallelism=5))
        assert list(recorder.parallelism_series()) == [3.0, 5.0]

    def test_extra_slots_series(self):
        recorder = RunRecorder()
        recorder.record_tick(*make_sample(1.0, extra=2))
        assert list(recorder.extra_slots_series()) == [2.0]


class TestProcessingRatio:
    def test_ratio_one_when_keeping_up(self):
        recorder = RunRecorder()
        for t in range(60):
            recorder.record_tick(*make_sample(float(t)))
        assert recorder.processing_ratio_series()[-1] == pytest.approx(1.0)

    def test_ratio_below_one_when_constrained(self):
        recorder = RunRecorder()
        for t in range(60):
            recorder.record_tick(*make_sample(float(t), processed=80.0))
        assert recorder.processing_ratio_series()[-1] == pytest.approx(0.8)

    def test_ratio_above_one_when_draining(self):
        """Section 8.4: ratio > 1 means queued events are being consumed."""
        recorder = RunRecorder()
        for t in range(60):
            recorder.record_tick(*make_sample(float(t), processed=130.0))
        assert recorder.processing_ratio_series()[-1] > 1.0

    def test_ratio_defaults_to_one_without_offered(self):
        recorder = RunRecorder()
        recorder.record_tick(*make_sample(0.0, processed=0.0, offered=0.0))
        assert recorder.processing_ratio_series()[0] == 1.0

    def test_windowing_limits_lookback(self):
        recorder = RunRecorder()
        for t in range(40):
            recorder.record_tick(*make_sample(float(t), processed=0.0))
        for t in range(40, 80):
            recorder.record_tick(*make_sample(float(t), processed=100.0))
        # With a 30-tick window the early zeros are out of scope by t=79.
        assert recorder.processing_ratio_series()[-1] == (
            pytest.approx(1.0)
        )


class TestDistributions:
    def test_mean_delay_weighted_by_events(self):
        recorder = RunRecorder()
        recorder.record_tick(*make_sample(1.0, delay=1.0, processed=300.0))
        recorder.record_tick(*make_sample(2.0, delay=4.0, processed=100.0))
        assert recorder.mean_delay() == pytest.approx(1.75)

    def test_percentile_endpoints(self):
        recorder = RunRecorder()
        for t, d in enumerate((1.0, 2.0, 3.0, 4.0)):
            recorder.record_tick(*make_sample(float(t), delay=d))
        assert recorder.delay_percentile(0) == 1.0
        assert recorder.delay_percentile(100) == 4.0

    def test_percentile_weighting(self):
        recorder = RunRecorder()
        recorder.record_tick(*make_sample(0.0, delay=1.0, processed=990.0))
        recorder.record_tick(*make_sample(1.0, delay=100.0, processed=10.0))
        assert recorder.delay_percentile(95) == 1.0
        assert recorder.delay_percentile(99.9) == 100.0

    def test_empty_distribution_is_nan(self):
        recorder = RunRecorder()
        assert math.isnan(recorder.mean_delay())
        assert math.isnan(recorder.delay_percentile(50))

    def test_cdf_monotone(self):
        recorder = RunRecorder()
        rng = np.random.default_rng(0)
        for t in range(100):
            recorder.record_tick(
                *make_sample(float(t), delay=float(rng.uniform(0.1, 30)))
            )
        xs, ys = recorder.delay_cdf()
        assert (np.diff(xs) >= 0).all()
        assert (np.diff(ys) >= 0).all()
        assert ys[-1] == pytest.approx(1.0)

    def test_cdf_caps_points(self):
        recorder = RunRecorder()
        for t in range(500):
            recorder.record_tick(*make_sample(float(t), delay=float(t)))
        xs, _ = recorder.delay_cdf()
        assert len(xs) == 200

    @given(st.lists(st.floats(min_value=0.01, max_value=1e4), min_size=1,
                    max_size=60))
    def test_percentile_within_observed_range(self, delays):
        recorder = RunRecorder()
        for t, d in enumerate(delays):
            recorder.record_tick(*make_sample(float(t), delay=d))
        p50 = recorder.delay_percentile(50)
        assert min(delays) <= p50 <= max(delays)


class TestQualityAccounting:
    def test_processed_fraction_full_when_no_drops(self):
        recorder = RunRecorder()
        recorder.record_tick(*make_sample(0.0))
        assert recorder.processed_fraction() == 1.0

    def test_processed_fraction_reflects_drops(self):
        recorder = RunRecorder()
        recorder.record_tick(*make_sample(0.0, dropped=25.0, offered=100.0))
        assert recorder.processed_fraction() == pytest.approx(0.75)

    def test_totals(self):
        recorder = RunRecorder()
        recorder.record_tick(*make_sample(0.0, processed=10, offered=20, dropped=5))
        recorder.record_tick(*make_sample(1.0, processed=30, offered=20, dropped=0))
        assert sum(s.processed for s in recorder.samples) == 40
        assert recorder.total_offered() == 40
        assert recorder.total_dropped() == 5

    def test_empty_run_fraction_is_one(self):
        assert RunRecorder().processed_fraction() == 1.0


def committed(t_s, stage, attempt, kind, reason, *, long_term=False):
    record = AdaptationRecord(
        t_s=t_s, kind=kind, stage=stage, reason=reason, transition_s=1.0,
        attempt=attempt, long_term=long_term,
    )
    return AttemptRecord(t_s, stage, attempt, "committed", reason, record)


class TestAdaptationLog:
    def test_records_events(self):
        recorder = RunRecorder()
        for entry in (
            committed(100.0, "agg", "primary", ActionKind.SCALE_OUT,
                      "bottleneck"),
            AttemptRecord(150.0, "agg", "primary", "rolled-back",
                          "site edge-1 failed"),
            committed(150.0, "agg", "retry-1", ActionKind.REASSIGN,
                      "re-measured"),
            committed(200.0, "sink", "primary", ActionKind.REPLAN,
                      "periodic", long_term=True),
            AttemptRecord(250.0, "agg", "exhausted", "abandoned",
                          "every technique rolled back"),
        ):
            recorder.record_adaptation(entry)
        assert [
            (e.t_s, e.action, e.detail) for e in recorder.adaptations
        ] == [
            (100.0, "scale out", "bottleneck"),
            (150.0, "rollback", "agg: primary: site edge-1 failed"),
            (150.0, "fallback:retry-1", "agg: re-measured"),
            (150.0, "re-assign", "re-measured"),
            (200.0, "re-plan (long-term)", "periodic"),
            (250.0, "adaptation-abandoned",
             "agg: every technique rolled back"),
        ]

    def test_records_faults_separately(self):
        recorder = RunRecorder()
        recorder.record_fault(50.0, "site-crash", "edge-1 crashed")
        assert recorder.faults[0].kind == "site-crash"
        assert recorder.adaptations == []


class TestIdleWindowNan:
    """Regression: an all-idle window must not poison the distributions."""

    def test_all_idle_run_yields_nan_summaries(self):
        recorder = RunRecorder()
        for t in (1.0, 2.0, 3.0):
            recorder.record_tick(
                *make_sample(t, delay=float("nan"), processed=0.0)
            )
        assert math.isnan(recorder.mean_delay())
        assert math.isnan(recorder.delay_percentile(95))
        xs, ys = recorder.delay_cdf()
        assert len(xs) == 0 and len(ys) == 0

    def test_idle_window_between_busy_ticks_is_skipped(self):
        recorder = RunRecorder()
        recorder.record_tick(*make_sample(1.0, delay=2.0, processed=100.0))
        recorder.record_tick(
            *make_sample(2.0, delay=float("nan"), processed=0.0)
        )
        recorder.record_tick(*make_sample(3.0, delay=4.0, processed=100.0))
        assert recorder.mean_delay() == pytest.approx(3.0)
        assert recorder.delay_percentile(100) == pytest.approx(4.0)

    def test_distribution_helpers_skip_nan_defensively(self):
        # A busy tick whose delay is NaN must be dropped by the one filter
        # rather than let NaN propagate through sort/cumsum.
        recorder = RunRecorder()
        recorder.record_tick(*make_sample(1.0, delay=2.0, processed=100.0))
        recorder.record_tick(
            *make_sample(2.0, delay=float("nan"), processed=50.0)
        )
        assert recorder.mean_delay() == pytest.approx(2.0)
        assert recorder.delay_percentile(99) == pytest.approx(2.0)
        xs, _ = recorder.delay_cdf()
        assert not np.isnan(xs).any()
