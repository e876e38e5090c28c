"""Tests for repro.engine.metrics - the Global Metric Monitor."""

import math
import random

import pytest

from repro.baselines.variants import wasp
from repro.config import WaspConfig
from repro.engine.metrics import GlobalMetricMonitor
from repro.engine.runtime import TICK_S, TickReport, running_sum
from repro.experiments.harness import ExperimentRun
from repro.experiments.scenarios import bottleneck_dynamics, fig8_scenario
from repro.sim.rng import RngRegistry


def report(t, **kwargs):
    r = TickReport(t_s=t)
    for key, value in kwargs.items():
        setattr(r, key, value)
    return r


def feed(monitor, r, capacity=None):
    """Hand one report to a monitor as a tick of the engine would: its
    values and the tick's per-(stage, site) ``capacity`` into the window
    sums, in report order, then ``observe``."""
    sums = monitor.sums
    sums.offered += r.offered
    sums.sink_events += r.sink_events
    sums.delay_weight += r.sink_delay_weighted_s
    for name, v in r.offered_by_source.items():
        running_sum(sums.source_gen, name).value += v
    for name, v in r.processed.items():
        running_sum(sums.processed, name).value += v
    for (stage, site), v in (capacity or {}).items():
        running_sum(sums.capacity.setdefault(stage, {}), site).value += v
    for (_, dst, su, sd), v in r.net_sent.items():
        running_sum(sums.net_in, (dst, su, sd)).value += v
    monitor.observe(r)


class TestAggregation:
    def test_rates_averaged_over_window(self):
        monitor = GlobalMetricMonitor()
        for t in (1.0, 2.0, 3.0, 4.0):
            feed(
                monitor,
                report(t, processed={"agg": 100.0}, emitted={"agg": 50.0}),
            )
        window = monitor.collect()
        metrics = window.stages["agg"]
        assert metrics.lambda_p == pytest.approx(100.0)

    def test_collect_resets_window(self):
        monitor = GlobalMetricMonitor()
        feed(monitor, report(1.0, processed={"agg": 100.0}))
        monitor.collect()
        assert monitor._ticks == 0
        assert monitor.collect().stages == {}

    def test_peek_aggregates_without_resetting(self):
        monitor = GlobalMetricMonitor()
        for t in (1.0, 2.0):
            feed(
                monitor,
                report(
                    t,
                    processed={"agg": 100.0},
                    net_sent={("src", "agg", "e1", "d1"): 30.0},
                    sink_events=10.0,
                    sink_delay_weighted_s=5.0,
                ),
            )
        peeked = monitor.peek()
        assert monitor._ticks == 2
        assert monitor.peek() == peeked
        assert monitor.collect() == peeked
        assert monitor._ticks == 0

    def test_empty_collect(self):
        window = GlobalMetricMonitor().collect()
        assert window.offered_eps == 0.0
        assert math.isnan(window.mean_delay_s)

    def test_source_generation_rates(self):
        monitor = GlobalMetricMonitor()
        for t in (1.0, 2.0):
            feed(
                monitor,
                report(t, offered=200.0, offered_by_source={"src": 200.0}),
            )
        window = monitor.collect()
        assert window.source_generation_eps["src"] == pytest.approx(200.0)
        assert window.offered_eps == pytest.approx(200.0)

    def test_mean_delay_weighted(self):
        monitor = GlobalMetricMonitor()
        feed(
            monitor,
            report(1.0, sink_events=100.0, sink_delay_weighted_s=100.0),
        )
        feed(
            monitor,
            report(2.0, sink_events=300.0, sink_delay_weighted_s=600.0),
        )
        assert monitor.collect().mean_delay_s == pytest.approx(1.75)


class TestBacklogs:
    def test_backlog_growth_last_minus_first(self):
        monitor = GlobalMetricMonitor()
        feed(monitor, report(1.0, input_backlog={("agg", "a"): 100.0}))
        feed(monitor, report(2.0, input_backlog={("agg", "a"): 400.0}))
        metrics = monitor.collect().stages["agg"]
        assert metrics.input_backlog == pytest.approx(400.0)
        assert metrics.input_backlog_growth == pytest.approx(300.0)

    def test_standing_backlog_zero_growth(self):
        monitor = GlobalMetricMonitor()
        for t in (1.0, 2.0):
            feed(monitor, report(t, input_backlog={("agg", "a"): 500.0}))
        metrics = monitor.collect().stages["agg"]
        assert metrics.input_backlog_growth == pytest.approx(0.0)

    def test_net_backlog_keyed_by_link(self):
        monitor = GlobalMetricMonitor()
        feed(
            monitor,
            report(1.0, net_backlog={("src", "agg", "e1", "d1"): 10.0}),
        )
        feed(
            monitor,
            report(2.0, net_backlog={("src", "agg", "e1", "d1"): 50.0}),
        )
        metrics = monitor.collect().stages["agg"]
        assert metrics.net_backlog[("e1", "d1")] == pytest.approx(50.0)
        assert metrics.net_backlog_growth[("e1", "d1")] == pytest.approx(40.0)

    def test_net_inflow_rate(self):
        monitor = GlobalMetricMonitor()
        for t in (1.0, 2.0):
            feed(
                monitor,
                report(t, net_sent={("src", "agg", "e1", "d1"): 30.0}),
            )
        metrics = monitor.collect().stages["agg"]
        assert metrics.net_inflow[("e1", "d1")] == pytest.approx(30.0)

    def test_per_site_processing_and_capacity(self):
        monitor = GlobalMetricMonitor()
        feed(
            monitor,
            report(1.0, processed={"agg": 150.0}),
            capacity={("agg", "a"): 200.0, ("agg", "b"): 300.0},
        )
        metrics = monitor.collect().stages["agg"]
        assert metrics.capacity_by_site == {"a": 200.0, "b": 300.0}
        assert metrics.utilization == pytest.approx(150.0 / 500.0)

    def test_utilization_zero_without_capacity(self):
        monitor = GlobalMetricMonitor()
        feed(monitor, report(1.0, processed={"agg": 10.0}))
        assert monitor.collect().stages["agg"].utilization == 0.0


class TestCollectEdgeCases:
    """Degenerate windows the controller can hand the monitor."""

    def test_empty_window_is_zeroed(self):
        monitor = GlobalMetricMonitor()
        window = monitor.collect()
        assert window.stages == {}
        assert window.offered_eps == 0.0
        assert window.duration_s == 0.0
        assert math.isnan(window.mean_delay_s)

    def test_empty_window_does_not_carry_state(self):
        monitor = GlobalMetricMonitor()
        feed(monitor, report(1.0, processed={"agg": 10.0}))
        monitor.collect()
        window = monitor.collect()  # nothing observed since
        assert window.stages == {}
        assert monitor._ticks == 0

    def test_zero_duration_window_single_report_at_t0(self):
        # One report at t=0: the span falls back to a positive epsilon, so
        # every rate stays finite instead of dividing by zero.
        monitor = GlobalMetricMonitor()
        feed(monitor, report(0.0, offered=100.0, processed={"agg": 50.0}))
        window = monitor.collect()
        assert window.duration_s == 0.0
        assert math.isfinite(window.offered_eps)
        assert math.isfinite(window.stages["agg"].lambda_p)
        assert window.stages["agg"].lambda_p >= 0.0

    def test_zero_duration_window_identical_timestamps(self):
        monitor = GlobalMetricMonitor()
        for _ in range(3):
            feed(monitor, report(5.0, processed={"agg": 30.0}))
        window = monitor.collect()
        assert window.duration_s == 0.0
        assert math.isfinite(window.stages["agg"].lambda_p)

    def test_stage_absent_in_later_tick_still_aggregates(self):
        # A stage undeployed mid-window reports in tick 1 but not tick 2;
        # absent ticks count as zero and the backlog reads the last tick.
        monitor = GlobalMetricMonitor()
        feed(
            monitor,
            report(
                1.0,
                processed={"agg": 100.0},
                input_backlog={("agg", "a"): 40.0},
            ),
        )
        feed(monitor, report(2.0, processed={"other": 10.0}))
        window = monitor.collect()
        metrics = window.stages["agg"]
        assert metrics.lambda_p == pytest.approx(50.0)  # 100 over 2 ticks
        assert metrics.input_backlog == 0.0  # gone from the final tick
        assert metrics.input_backlog_growth == pytest.approx(-40.0)
        assert "other" in window.stages

    def test_stage_appearing_mid_window_aggregates(self):
        monitor = GlobalMetricMonitor()
        feed(monitor, report(1.0, processed={"other": 10.0}))
        feed(
            monitor,
            report(
                2.0,
                processed={"late": 80.0},
                input_backlog={("late", "b"): 5.0},
            ),
        )
        window = monitor.collect()
        metrics = window.stages["late"]
        assert metrics.lambda_p == pytest.approx(40.0)
        assert metrics.input_backlog == pytest.approx(5.0)
        assert metrics.input_backlog_growth == pytest.approx(5.0)


def _rescan_sites(tables, stage):
    """Per-stage rescan of ``(stage, site)`` tables, in tick order."""
    out = {}
    for table in tables:
        for (name, site), v in table.items():
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
    same per-stage key order, also when a ``peek`` read part of the
    window earlier."""

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
        reports, capacities = [], []
        for t in range(1, draw.randint(2, 12)):
            capacities.append(table(stage_sites))
            reports.append(
                report(
                    float(t),
                    input_backlog=table(stage_sites),
                    net_sent=table(flows),
                    net_backlog=table(flows),
                )
            )
        peek_after = draw.randint(0, len(reports))
        monitor = GlobalMetricMonitor()
        for i, (r, capacity) in enumerate(zip(reports, capacities), 1):
            feed(monitor, r, capacity)
            if i == peek_after:
                monitor.peek()
        window = monitor.collect()
        span = float(len(reports))
        expected_names = {s for r in reports for s, _ in r.input_backlog}
        expected_names |= {k[1] for r in reports for k in r.net_backlog}
        expected_names |= {k[1] for r in reports for k in r.net_sent}
        assert set(window.stages) == expected_names
        for name, metrics in window.stages.items():
            expected = {
                k: v / span
                for k, v in _rescan_sites(capacities, name).items()
            }
            assert list(metrics.capacity_by_site.items()) == list(
                expected.items()
            )
            expected = {
                k: v / span for k, v in _rescan_inflow(reports, name).items()
            }
            assert list(metrics.net_inflow.items()) == list(expected.items())


class TestPlanSelectivity:
    """The window aggregates no observed output rate or selectivity: the
    fluid engine emits exactly the plan sigma times what a stage processed,
    so the estimator's plan sigma is the observed one."""

    @pytest.mark.parametrize("backend", ["reference", "dense"])
    def test_emitted_is_plan_selectivity_times_processed(self, backend):
        scenario = fig8_scenario("topk-topics")
        rngs = RngRegistry(42)
        topology = scenario.make_topology(rngs)
        query = scenario.make_query(topology, rngs)
        config = WaspConfig.paper_defaults().with_overrides(
            engine_backend=backend
        )
        run = ExperimentRun(topology, query, wasp(), config=config, rngs=rngs)
        run.set_dynamics(bottleneck_dynamics())
        checked = 0
        for _ in range(round(scenario.duration_s / TICK_S)):
            # Read sigma before the step: a round at its end may re-plan.
            sigma = {
                name: stage.selectivity
                for name, stage in run.runtime.plan.stages.items()
                if not stage.is_sink
            }
            run.step()
            r = run.runtime.last_report
            for name, sel in sigma.items():
                processed = r.processed.get(name, 0.0)
                assert r.emitted.get(name, 0.0) == pytest.approx(
                    sel * processed, rel=1e-9
                ), (r.t_s, name)
                checked += processed > 0.0
        assert run.manager.history  # the run adapted
        assert checked > 1000


class TestWindowSpan:
    """A window of n ticks spans n times the engine's tick length, also
    when it holds a single tick."""

    def test_single_report_window_divides_by_one_tick(self):
        monitor = GlobalMetricMonitor()
        feed(monitor, report(401.0, processed={"agg": 100.0}))
        assert monitor.collect().stages["agg"].lambda_p == 100.0

    def test_span_uses_the_engine_tick_length(self):
        monitor = GlobalMetricMonitor()
        for t in (11.0, 12.0, 13.0):
            feed(monitor, report(t, processed={"agg": 30.0}))
        assert monitor.collect().stages["agg"].lambda_p == 90.0 / (3 * TICK_S)

    def test_one_tick_rounds_read_the_tick_rates(self):
        scenario = fig8_scenario("ysb-advertising")
        rngs = RngRegistry(42)
        topology = scenario.make_topology(rngs)
        query = scenario.make_query(topology, rngs)
        config = WaspConfig.paper_defaults().with_overrides(
            monitor_interval_s=1.0
        )
        run = ExperimentRun(topology, query, wasp(), config=config, rngs=rngs)
        run.set_dynamics(scenario.make_dynamics(rngs))
        while run.clock.now_s < 200.0:
            run.step()
        window = run.manager.last_window
        last = run.runtime.last_report
        assert window.t_start_s == window.t_end_s == 200.0
        assert window.offered_eps == last.offered > 0.0
        assert window.stages
        for name, metrics in window.stages.items():
            assert metrics.lambda_p == last.processed.get(name, 0.0), name
