"""Tests for repro.engine.metrics - the Global Metric Monitor."""

import math
import random

import pytest

from repro.engine.metrics import GlobalMetricMonitor
from repro.engine.runtime import TickReport


def report(t, **kwargs):
    r = TickReport(t_s=t)
    for key, value in kwargs.items():
        setattr(r, key, value)
    return r


class TestAggregation:
    def test_rates_averaged_over_window(self):
        monitor = GlobalMetricMonitor()
        for t in (1.0, 2.0, 3.0, 4.0):
            monitor.observe(
                report(t, processed={"agg": 100.0}, arrived={"agg": 110.0},
                       emitted={"agg": 50.0})
            )
        window = monitor.collect()
        metrics = window.stages["agg"]
        assert metrics.lambda_p == pytest.approx(100.0)
        assert metrics.lambda_i == pytest.approx(110.0)
        assert metrics.lambda_o == pytest.approx(50.0)

    def test_selectivity_from_window(self):
        monitor = GlobalMetricMonitor()
        monitor.observe(
            report(1.0, processed={"agg": 200.0}, emitted={"agg": 50.0})
        )
        assert monitor.collect().stages["agg"].selectivity == pytest.approx(
            0.25
        )

    def test_collect_resets_window(self):
        monitor = GlobalMetricMonitor()
        monitor.observe(report(1.0, processed={"agg": 100.0}))
        monitor.collect()
        assert monitor.pending_ticks == 0
        assert monitor.collect().stages == {}

    def test_empty_collect(self):
        window = GlobalMetricMonitor().collect()
        assert window.offered_eps == 0.0
        assert math.isnan(window.mean_delay_s)

    def test_source_generation_rates(self):
        monitor = GlobalMetricMonitor()
        for t in (1.0, 2.0):
            monitor.observe(
                report(t, offered=200.0, offered_by_source={"src": 200.0})
            )
        window = monitor.collect()
        assert window.source_generation_eps["src"] == pytest.approx(200.0)
        assert window.offered_eps == pytest.approx(200.0)

    def test_mean_delay_weighted(self):
        monitor = GlobalMetricMonitor()
        monitor.observe(
            report(1.0, sink_events=100.0, sink_delay_weighted_s=100.0)
        )
        monitor.observe(
            report(2.0, sink_events=300.0, sink_delay_weighted_s=600.0)
        )
        assert monitor.collect().mean_delay_s == pytest.approx(1.75)

    def test_sink_conversion_applied(self):
        monitor = GlobalMetricMonitor()
        monitor.observe(report(1.0, sink_events=10.0))
        window = monitor.collect(sink_source_equiv=lambda events: events * 100)
        assert window.sink_source_equiv_eps == pytest.approx(1000.0)


class TestBacklogs:
    def test_backlog_growth_last_minus_first(self):
        monitor = GlobalMetricMonitor()
        monitor.observe(report(1.0, input_backlog={("agg", "a"): 100.0}))
        monitor.observe(report(2.0, input_backlog={("agg", "a"): 400.0}))
        metrics = monitor.collect().stages["agg"]
        assert metrics.input_backlog == pytest.approx(400.0)
        assert metrics.input_backlog_growth == pytest.approx(300.0)

    def test_standing_backlog_zero_growth(self):
        monitor = GlobalMetricMonitor()
        for t in (1.0, 2.0):
            monitor.observe(report(t, input_backlog={("agg", "a"): 500.0}))
        metrics = monitor.collect().stages["agg"]
        assert metrics.input_backlog_growth == pytest.approx(0.0)

    def test_net_backlog_keyed_by_link(self):
        monitor = GlobalMetricMonitor()
        monitor.observe(
            report(1.0, net_backlog={("src", "agg", "e1", "d1"): 10.0})
        )
        monitor.observe(
            report(2.0, net_backlog={("src", "agg", "e1", "d1"): 50.0})
        )
        metrics = monitor.collect().stages["agg"]
        assert metrics.net_backlog[("e1", "d1")] == pytest.approx(50.0)
        assert metrics.net_backlog_growth[("e1", "d1")] == pytest.approx(40.0)

    def test_net_inflow_rate(self):
        monitor = GlobalMetricMonitor()
        for t in (1.0, 2.0):
            monitor.observe(
                report(t, net_sent={("src", "agg", "e1", "d1"): 30.0})
            )
        metrics = monitor.collect().stages["agg"]
        assert metrics.net_inflow[("e1", "d1")] == pytest.approx(30.0)

    def test_per_site_processing_and_capacity(self):
        monitor = GlobalMetricMonitor()
        monitor.observe(
            report(
                1.0,
                processed={"agg": 150.0},
                processed_by_site={("agg", "a"): 100.0, ("agg", "b"): 50.0},
                capacity_by_site={("agg", "a"): 200.0, ("agg", "b"): 200.0},
            )
        )
        metrics = monitor.collect().stages["agg"]
        assert metrics.processed_by_site["a"] == pytest.approx(100.0)
        assert metrics.utilization == pytest.approx(150.0 / 400.0)

    def test_utilization_zero_without_capacity(self):
        monitor = GlobalMetricMonitor()
        monitor.observe(report(1.0, processed={"agg": 10.0}))
        assert monitor.collect().stages["agg"].utilization == 0.0


class TestCollectEdgeCases:
    """Degenerate windows the controller can hand the monitor."""

    def test_empty_window_is_zeroed(self):
        monitor = GlobalMetricMonitor()
        window = monitor.collect()
        assert window.stages == {}
        assert window.offered_eps == 0.0
        assert window.sink_source_equiv_eps == 0.0
        assert window.duration_s == 0.0
        assert math.isnan(window.mean_delay_s)

    def test_empty_window_does_not_carry_state(self):
        monitor = GlobalMetricMonitor()
        monitor.observe(report(1.0, processed={"agg": 10.0}))
        monitor.collect()
        window = monitor.collect()  # nothing observed since
        assert window.stages == {}
        assert monitor.pending_ticks == 0

    def test_zero_duration_window_single_report_at_t0(self):
        # One report at t=0: the span falls back to a positive epsilon, so
        # every rate stays finite instead of dividing by zero.
        monitor = GlobalMetricMonitor()
        monitor.observe(report(0.0, offered=100.0, processed={"agg": 50.0}))
        window = monitor.collect()
        assert window.duration_s == 0.0
        assert math.isfinite(window.offered_eps)
        assert math.isfinite(window.stages["agg"].lambda_p)
        assert window.stages["agg"].lambda_p >= 0.0

    def test_zero_duration_window_identical_timestamps(self):
        monitor = GlobalMetricMonitor()
        for _ in range(3):
            monitor.observe(report(5.0, processed={"agg": 30.0}))
        window = monitor.collect()
        assert window.duration_s == 0.0
        assert math.isfinite(window.stages["agg"].lambda_p)

    def test_stage_absent_in_later_tick_still_aggregates(self):
        # A stage undeployed mid-window reports in tick 1 but not tick 2;
        # absent ticks count as zero and the backlog reads the last tick.
        monitor = GlobalMetricMonitor()
        monitor.observe(
            report(
                1.0,
                processed={"agg": 100.0},
                input_backlog={("agg", "a"): 40.0},
            )
        )
        monitor.observe(report(2.0, processed={"other": 10.0}))
        window = monitor.collect()
        metrics = window.stages["agg"]
        assert metrics.lambda_p == pytest.approx(50.0)  # 100 over 2 ticks
        assert metrics.input_backlog == 0.0  # gone from the final tick
        assert metrics.input_backlog_growth == pytest.approx(-40.0)
        assert "other" in window.stages

    def test_stage_appearing_mid_window_aggregates(self):
        monitor = GlobalMetricMonitor()
        monitor.observe(report(1.0, processed={"other": 10.0}))
        monitor.observe(
            report(
                2.0,
                processed={"late": 80.0},
                input_backlog={("late", "b"): 5.0},
            )
        )
        window = monitor.collect()
        metrics = window.stages["late"]
        assert metrics.lambda_p == pytest.approx(40.0)
        assert metrics.input_backlog == pytest.approx(5.0)
        assert metrics.input_backlog_growth == pytest.approx(5.0)


def _rescan_sites(reports, stage, field):
    """Per-stage rescan of a ``(stage, site)`` table, in report order."""
    out = {}
    for r in reports:
        for (name, site), v in getattr(r, field).items():
            if name == stage:
                out[site] = out.get(site, 0.0) + v
    return out


def _rescan_inflow(reports, stage):
    """Per-stage rescan of ``net_sent`` folded onto (src site, dst site)."""
    out = {}
    for r in reports:
        for (_, dst, su, sd), v in r.net_sent.items():
            if dst == stage:
                out[su, sd] = out.get((su, sd), 0.0) + v
    return out


class TestFlatAccumulation:
    """The flat per-key sums equal a per-stage rescan bit for bit, with the
    same per-stage key order."""

    @pytest.mark.parametrize("seed", range(10))
    def test_grouped_tables_match_a_per_stage_rescan(self, seed):
        draw = random.Random(seed)
        stages, sites = ["a", "b", "c", "d"], ["x", "y", "z"]

        def value():
            return 10 ** draw.uniform(-3, 6)

        def table(keys):
            chosen = draw.sample(keys, draw.randint(0, len(keys)))
            return {key: value() for key in chosen}

        stage_sites = [(s, site) for s in stages for site in sites]
        flows = [
            (su_stage, dst, su, sd)
            for su_stage in stages
            for dst in stages
            for su in sites
            for sd in sites
            if su_stage != dst and su != sd
        ]
        reports = [
            report(
                float(t),
                processed_by_site=table(stage_sites),
                capacity_by_site=table(stage_sites),
                input_backlog=table(stage_sites),
                net_sent=table(flows),
                net_backlog=table(flows),
            )
            for t in range(1, draw.randint(2, 12))
        ]
        monitor = GlobalMetricMonitor()
        for r in reports:
            monitor.observe(r)
        window = monitor.collect()
        span = float(len(reports))
        expected_names = {s for r in reports for s, _ in r.input_backlog}
        expected_names |= {k[1] for r in reports for k in r.net_backlog}
        expected_names |= {k[1] for r in reports for k in r.net_sent}
        assert set(window.stages) == expected_names
        for name, metrics in window.stages.items():
            for field, got in (
                ("processed_by_site", metrics.processed_by_site),
                ("capacity_by_site", metrics.capacity_by_site),
            ):
                expected = {
                    k: v / span
                    for k, v in _rescan_sites(reports, name, field).items()
                }
                assert list(got.items()) == list(expected.items())
            expected = {
                k: v / span for k, v in _rescan_inflow(reports, name).items()
            }
            assert list(metrics.net_inflow.items()) == list(expected.items())
