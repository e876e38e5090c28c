"""Tests for repro.experiments.figures - the text renderers."""

import numpy as np
import pytest

from benchmarks.perf import digest
from repro.baselines.variants import no_adapt, wasp
from repro.experiments.figures import (
    OverheadBreakdown,
    fig2_report,
    fig7_report,
    fig8_report,
    fig9_report,
    fig10_report,
    fig11_report,
    fig12_report,
    fig13_report,
    fig14_report,
    measure_overhead,
    segment_mean,
    table2_report,
    table3_report,
)
from repro.experiments.harness import ExperimentRun
from repro.experiments.scenarios import bottleneck_dynamics
from repro.network.bandwidth import oregon_ohio_trace
from repro.sim.rng import RngRegistry
from repro.workloads.queries import all_queries, ysb_advertising


@pytest.fixture(scope="module")
def short_runs():
    from repro.network.traces import paper_testbed

    runs = {}
    for variant in (no_adapt(), wasp()):
        rngs = RngRegistry(5)
        topo = paper_testbed(rngs.stream("topology"))
        query = ysb_advertising(topo)
        run = ExperimentRun(topo, query, variant, rngs=rngs)
        run.run(60)
        runs[variant.name] = run
    return runs


class TestSegmentMean:
    def test_basic(self):
        assert segment_mean(np.array([1.0, 2.0, 3.0, 4.0]), 1, 3) == 2.5

    def test_ignores_nan(self):
        series = np.array([1.0, np.nan, 3.0])
        assert segment_mean(series, 0, 3) == 2.0

    def test_empty_is_nan(self):
        assert np.isnan(segment_mean(np.array([np.nan]), 0, 1))


class TestStaticReports:
    def test_fig2(self):
        text = fig2_report(oregon_ohio_trace(np.random.default_rng(0)))
        assert "Oregon -> Ohio" in text
        assert "deviation" in text

    def test_fig7(self, testbed):
        text = fig7_report(testbed)
        assert "edge bandwidth" in text and "DC latency" in text

    def test_table2(self):
        assert "Task Re-Assignment" in table2_report()

    def test_table3(self, testbed, rngs):
        text = table3_report(all_queries(testbed, rngs.stream("query")))
        assert "Top-K Topics" in text
        assert "Twitter trace (scaled)" in text


class TestRunReports:
    def test_fig8(self, short_runs):
        text = fig8_report(short_runs, "ysb-advertising")
        assert "No Adapt" in text and "WASP" in text

    def test_fig9(self, short_runs):
        text = fig9_report(short_runs, "ysb-advertising")
        assert "processing ratio" in text

    def test_fig10(self, short_runs):
        text = fig10_report(short_runs)
        assert "p93" in text

    def test_fig11(self, short_runs):
        text = fig11_report(short_runs)
        assert "failure" in text

    def test_fig12(self, short_runs):
        text = fig12_report(short_runs)
        assert "processed %" in text
        assert "100.0%" in text


class TestFaultMarkers:
    """The reports' ``faults:`` line reads the recorder's fault timeline."""

    def test_chaos_run_lists_each_fault_and_its_revert(self):
        run = digest._chaos_run(digest.DIGEST_SEED)
        run.run(450.0, bottleneck_dynamics())
        report = fig8_report({"WASP": run}, "topk-topics")
        assert report.splitlines()[-1] == (
            "faults: 120s:fault:site-crash, 165s:fault:site-crash:revert, "
            "200s:fault:bandwidth-collapse, "
            "260s:fault:bandwidth-collapse:revert, 300s:fault:straggler, "
            "380s:fault:straggler:revert"
        )

    def test_run_without_chaos_prints_no_fault_line(self, short_runs):
        assert "faults:" not in fig8_report(short_runs, "YSB")
        assert "faults:" not in fig9_report(short_runs, "YSB")


class TestOverhead:
    def test_measure_overhead_splits_phases(self):
        from repro.core.controller import AdaptationRecord
        from repro.core.actions import ActionKind
        from repro.network.traces import paper_testbed

        # Long enough for the baseline window (ticks 60-170) and a
        # t=180 adaptation, as in Figure 13.
        rngs = RngRegistry(5)
        topo = paper_testbed(rngs.stream("topology"))
        run = ExperimentRun(topo, ysb_advertising(topo), wasp(), rngs=rngs)
        run.run(200)
        record = AdaptationRecord(
            t_s=180.0, kind=ActionKind.REASSIGN, stage="x", reason="",
            transition_s=5.0,
        )
        breakdown = measure_overhead(run, record, destination="dc")
        assert breakdown.transition_s == 5.0
        assert breakdown.stabilize_s is not None

    def test_fig13_report(self):
        rows = [
            OverheadBreakdown("WASP", "edge-1", 40.0, 10.0, 20.0, 0.0),
            OverheadBreakdown("WASP/none", "edge-2", 2.0, 1.0, 0.7, 60.0),
        ]
        text = fig13_report(rows)
        assert "WASP/none" in text
        assert "60MB" in text

    def test_fig14_report(self):
        rows = [
            ("Default", 512.0, OverheadBreakdown("WASP", "", 350.0, None,
                                                 1.0, 0.0)),
            ("Partitioned", 512.0, OverheadBreakdown("WASP", "", 110.0, 5.0,
                                                     90.0, 0.0)),
        ]
        text = fig14_report(rows)
        assert "Partitioned" in text
        assert "-" in text  # unstabilized run renders a dash

    def test_total(self):
        breakdown = OverheadBreakdown("x", "", 10.0, 5.0, 1.0, 0.0)
        assert breakdown.total_s == 15.0
        assert OverheadBreakdown("x", "", 10.0, None, 1.0, 0.0).total_s == 10.0
