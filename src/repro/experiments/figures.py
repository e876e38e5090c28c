"""Text renderers for every figure and table of Section 8.

Each ``figN_*`` function takes the corresponding runs (or raw ingredients)
and returns the series/rows the paper's figure reports, as plain text.  The
benchmark harness prints these, so ``pytest benchmarks/ --benchmark-only``
regenerates the full evaluation in a readable form; EXPERIMENTS.md records
the paper-vs-measured comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.comparison import render_table as render_table2
from ..core.controller import AdaptationRecord
from ..network.bandwidth import BandwidthStats, thirty_minute_rollup
from ..network.topology import Topology
from ..network.traces import network_distributions
from ..workloads.queries import BenchmarkQuery
from .harness import ExperimentRun


def _fmt(value: float, width: int = 8, digits: int = 2) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-".rjust(width)
    return f"{value:{width}.{digits}f}"


def segment_mean(series: np.ndarray, lo: int, hi: int) -> float:
    """Mean of a series over [lo, hi) ignoring NaNs (empty -> NaN)."""
    chunk = series[lo:hi]
    chunk = chunk[~np.isnan(chunk)]
    return float(np.mean(chunk)) if len(chunk) else float("nan")


# --------------------------------------------------------------------------- #
# Figure 2 and Figure 7
# --------------------------------------------------------------------------- #


def fig2_report(trace_5min: np.ndarray) -> str:
    """Bandwidth variability between Oregon and Ohio (Figure 2)."""
    rollup = thirty_minute_rollup(trace_5min)
    stats = BandwidthStats.from_trace(trace_5min)
    lines = [
        "Figure 2: bandwidth variability Oregon -> Ohio "
        "(30-minute interval averages, Mbps)",
        " ".join(f"{v:6.1f}" for v in rollup),
        f"mean={stats.mean_mbps:.1f} Mbps  min={stats.min_mbps:.1f}  "
        f"max={stats.max_mbps:.1f}  deviation from mean: "
        f"{stats.min_deviation * 100:.0f}%..{stats.max_deviation * 100:.0f}%",
        "paper: deviations span 25%..93% of the mean",
    ]
    return "\n".join(lines)


def fig7_report(topology: Topology) -> str:
    """Inter-site bandwidth/latency distributions (Figure 7)."""
    dists = network_distributions(topology)
    lines = ["Figure 7: inter-site network distributions"]
    for label, key, unit in (
        ("edge bandwidth", "edge_bandwidth_mbps", "Mbps"),
        ("DC bandwidth", "dc_bandwidth_mbps", "Mbps"),
        ("edge latency", "edge_latency_ms", "ms"),
        ("DC latency", "dc_latency_ms", "ms"),
    ):
        values = dists[key]
        if len(values) == 0:
            lines.append(f"  {label:15s}: (no links)")
            continue
        quartiles = np.percentile(values, [0, 25, 50, 75, 100])
        lines.append(
            f"  {label:15s}: "
            + "  ".join(f"p{p}={v:7.1f}" for p, v in zip((0, 25, 50, 75, 100), quartiles))
            + f" {unit}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Figures 8 & 9
# --------------------------------------------------------------------------- #

#: Interval boundaries of the Section 8.4 timeline (tick indices).
FIG8_SEGMENTS = (
    ("baseline t<300", 100, 300),
    ("2x load 300-600", 380, 600),
    ("restored 600-900", 700, 900),
    ("bw/2 900-1200", 980, 1200),
    ("restored 1200-1500", 1300, 1500),
)


def fig8_report(runs: dict[str, ExperimentRun], query_name: str) -> str:
    """Average execution delay per interval per variant (Figure 8)."""
    lines = [f"Figure 8 ({query_name}): mean delay per interval (seconds)"]
    header = "variant".ljust(10) + "".join(
        name.rjust(22) for name, _, _ in FIG8_SEGMENTS
    )
    lines.append(header)
    for name, run in runs.items():
        delay = run.recorder.delay_series()
        cells = "".join(
            _fmt(segment_mean(delay, lo, hi), 22) for _, lo, hi in FIG8_SEGMENTS
        )
        lines.append(name.ljust(10) + cells)
    faults = _fault_markers(runs)
    if faults:
        lines.append("faults: " + ", ".join(faults))
    return "\n".join(lines)


def fig9_report(runs: dict[str, ExperimentRun], query_name: str) -> str:
    """Processing ratio per interval per variant (Figure 9)."""
    lines = [f"Figure 9 ({query_name}): processing ratio per interval"]
    header = "variant".ljust(10) + "".join(
        name.rjust(22) for name, _, _ in FIG8_SEGMENTS
    )
    lines.append(header)
    for name, run in runs.items():
        ratio = run.recorder.processing_ratio_series()
        cells = "".join(
            _fmt(segment_mean(ratio, lo, hi), 22) for _, lo, hi in FIG8_SEGMENTS
        )
        lines.append(name.ljust(10) + cells)
    adaptations = [
        f"{r.t_s:.0f}s:{r.kind.value}"
        for run in runs.values()
        if run.manager
        for r in run.manager.history
    ]
    if adaptations:
        lines.append("adaptations: " + ", ".join(adaptations))
    faults = _fault_markers(runs)
    if faults:
        lines.append("faults: " + ", ".join(faults))
    return "\n".join(lines)


def _fault_markers(runs: dict[str, ExperimentRun]) -> list[str]:
    """Chaos-fault markers ``<t>s:fault:<kind>`` for figure timelines.

    Figure scenarios without chaos produce no markers, so their reports
    print no ``faults:`` line at all.
    """
    return [
        f"{f.t_s:.0f}s:fault:{f.kind}"
        for run in runs.values()
        for f in run.recorder.faults
    ]


# --------------------------------------------------------------------------- #
# Figure 10
# --------------------------------------------------------------------------- #


def fig10_report(runs: dict[str, ExperimentRun]) -> str:
    """Technique comparison: delay distribution, intervals, parallelism."""
    lines = ["Figure 10: Re-assign vs Scale vs Re-plan (Top-K query)"]
    lines.append(
        "variant".ljust(10)
        + "".join(h.rjust(10) for h in ("mean", "p50", "p90", "p93", "p99"))
        + "max extra slots".rjust(18)
        + "actions".rjust(9)
    )
    for name, run in runs.items():
        rec = run.recorder
        row = (
            name.ljust(10)
            + _fmt(rec.mean_delay(), 10)
            + _fmt(rec.delay_percentile(50), 10)
            + _fmt(rec.delay_percentile(90), 10)
            + _fmt(rec.delay_percentile(93), 10)
            + _fmt(rec.delay_percentile(99), 10)
            + str(int(max(rec.extra_slots_series(), default=0))).rjust(18)
            + str(len(run.manager.history) if run.manager else 0).rjust(9)
        )
        lines.append(row)
    for name, run in runs.items():
        if run.manager and run.manager.history:
            acts = ", ".join(
                f"{r.t_s:.0f}s:{r.kind.value}" for r in run.manager.history
            )
            lines.append(f"  {name}: {acts}")
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Figures 11 & 12
# --------------------------------------------------------------------------- #


def fig11_report(runs: dict[str, ExperimentRun]) -> str:
    """Live environment: delay and parallelism over time (Figure 11)."""
    lines = ["Figure 11: live environment (Top-K query, failure at t=540)"]
    segments = (
        ("t<540", 100, 540),
        ("failure 540-600", 540, 600),
        ("recovery 600-900", 640, 900),
        ("late 900-1800", 900, 1800),
    )
    header = "variant".ljust(10) + "".join(
        name.rjust(20) for name, _, _ in segments
    ) + "max parallelism".rjust(17)
    lines.append(header)
    for name, run in runs.items():
        delay = run.recorder.delay_series()
        cells = "".join(
            _fmt(segment_mean(delay, lo, hi), 20) for _, lo, hi in segments
        )
        par = int(max(run.recorder.parallelism_series(), default=0))
        lines.append(name.ljust(10) + cells + str(par).rjust(17))
    return "\n".join(lines)


def fig12_report(runs: dict[str, ExperimentRun]) -> str:
    """Quality vs delay trade-off (Figure 12)."""
    lines = ["Figure 12: processed events and delay distribution"]
    lines.append(
        "variant".ljust(10)
        + "processed %".rjust(14)
        + "".join(h.rjust(10) for h in ("p50", "p75", "p95", "p99"))
    )
    for name, run in runs.items():
        rec = run.recorder
        lines.append(
            name.ljust(10)
            + f"{rec.processed_fraction() * 100:13.1f}%"
            + _fmt(rec.delay_percentile(50), 10)
            + _fmt(rec.delay_percentile(75), 10)
            + _fmt(rec.delay_percentile(95), 10)
            + _fmt(rec.delay_percentile(99), 10)
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Figures 13 & 14
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class OverheadBreakdown:
    """Transition + stabilizing time of one controlled adaptation."""

    variant: str
    destination: str
    transition_s: float
    stabilize_s: float | None
    p95_delay_s: float
    state_lost_mb: float

    @property
    def total_s(self) -> float:
        return self.transition_s + (self.stabilize_s or 0.0)


def measure_overhead(
    run: ExperimentRun,
    record: AdaptationRecord,
    *,
    destination: str = "",
) -> OverheadBreakdown:
    """Split an adaptation's overhead into transition and stabilizing time.

    Transition: the suspension while state migrates (Section 8.7).
    Stabilizing: from the end of the transition until the delay returns to
    twice the pre-adaptation baseline, the mean delay over ticks 60-170
    before the t=180 adaptation (None if it never does within the run).
    """
    rec = run.recorder
    delay = rec.delay_series()
    baseline = segment_mean(delay, 60, 170)
    threshold = max(2 * baseline, 1.5)
    t_end = record.t_s + record.transition_s
    stabilize = None
    for sample in rec.samples:
        if sample.t_s <= t_end or math.isnan(sample.delay_s):
            continue
        if sample.delay_s < threshold:
            stabilize = sample.t_s - t_end
            break
    return OverheadBreakdown(
        variant=run.variant.name,
        destination=destination,
        transition_s=record.transition_s,
        stabilize_s=stabilize,
        p95_delay_s=rec.delay_percentile(95),
        state_lost_mb=run.manager.state_lost_mb if run.manager else 0.0,
    )


def fig13_report(breakdowns: list[OverheadBreakdown]) -> str:
    """Network-aware state migration comparison (Figure 13)."""
    lines = ["Figure 13: state-migration strategies (60 MB state)"]
    lines.append(
        "strategy".ljust(14)
        + "destination".rjust(14)
        + "transition".rjust(12)
        + "stabilize".rjust(11)
        + "total".rjust(9)
        + "p95 delay".rjust(11)
        + "state lost".rjust(12)
    )
    for b in breakdowns:
        lines.append(
            b.variant.ljust(14)
            + b.destination.rjust(14)
            + _fmt(b.transition_s, 12, 1)
            + (_fmt(b.stabilize_s, 11, 1) if b.stabilize_s is not None else "-".rjust(11))
            + _fmt(b.total_s, 9, 1)
            + _fmt(b.p95_delay_s, 11, 1)
            + f"{b.state_lost_mb:10.0f}MB"
        )
    return "\n".join(lines)


def fig14_report(
    rows: list[tuple[str, float, OverheadBreakdown]]
) -> str:
    """State partitioning vs state size (Figure 14)."""
    lines = ["Figure 14: mitigating overhead through state partitioning"]
    lines.append(
        "mode".ljust(12)
        + "state MB".rjust(9)
        + "transition".rjust(12)
        + "stabilize".rjust(11)
        + "p95 delay".rjust(11)
    )
    for mode, size, b in rows:
        lines.append(
            mode.ljust(12)
            + f"{size:9.0f}"
            + _fmt(b.transition_s, 12, 1)
            + (_fmt(b.stabilize_s, 11, 1) if b.stabilize_s is not None else "-".rjust(11))
            + _fmt(b.p95_delay_s, 11, 1)
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Tables
# --------------------------------------------------------------------------- #


def table2_report() -> str:
    """Table 2: qualitative technique comparison."""
    return "Table 2: qualitative comparison\n" + render_table2()


def table3_report(queries: list[BenchmarkQuery]) -> str:
    """Table 3: query inventory."""
    lines = ["Table 3: location-based query details"]
    lines.append(
        "Application".ljust(24)
        + "State".ljust(10)
        + "Operators".ljust(42)
        + "Dataset"
    )
    for query in queries:
        row = query.table3
        lines.append(
            row.application.ljust(24)
            + row.state.ljust(10)
            + ", ".join(row.operators).ljust(42)
            + row.dataset
        )
    return "\n".join(lines)
