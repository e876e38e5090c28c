"""Runtime metric monitoring (Sections 3.1 and 3.2).

Each Task Manager's Local Metric Monitor gathers task-level metrics and
reports them to the Global Metric Monitor, which aggregates them per operator
over the past time interval:

    lambda_P = sum_i lambda_P[i]      (processing rate)
    lambda_O = sum_i lambda_O[i]      (output rate)
    sigma    = lambda_O / lambda_P    (selectivity)

In the fluid engine, task-level observations arrive as
:class:`~repro.engine.runtime.TickReport` objects; the
:class:`GlobalMetricMonitor` accumulates them until the controller collects a
:class:`MetricsWindow`, which resets the accumulation (one monitoring
interval, 40 s in the paper's setup).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .runtime import TickReport


@dataclass(frozen=True)
class StageMetrics:
    """Aggregated execution metrics for one stage over a window.

    Rates are events/second averaged over the window.  ``backlog_growth``
    values compare the window's last tick against its first, which is what
    distinguishes a standing (already-drained) queue from a growing one.
    """

    stage: str
    lambda_p: float
    lambda_i: float
    lambda_o: float
    selectivity: float
    processed_by_site: dict[str, float]
    capacity_by_site: dict[str, float]
    input_backlog: float
    input_backlog_growth: float
    #: per site: input backlog at window end (imbalance/straggler signal)
    input_backlog_by_site: dict[str, float]
    #: per (src_site, dst_site): inbound WAN backlog at window end
    net_backlog: dict[tuple[str, str], float]
    #: per (src_site, dst_site): backlog growth over the window
    net_backlog_growth: dict[tuple[str, str], float]
    #: per (src_site, dst_site): events/s actually transferred inbound
    net_inflow: dict[tuple[str, str], float]

    @property
    def utilization(self) -> float:
        """Fraction of the stage's processing capacity in use."""
        capacity = sum(self.capacity_by_site.values())
        if capacity <= 0:
            return 0.0
        return self.lambda_p / capacity


@dataclass(frozen=True)
class MetricsWindow:
    """Everything the controller sees at the end of a monitoring interval."""

    t_start_s: float
    t_end_s: float
    offered_eps: float
    source_generation_eps: dict[str, float]
    stages: dict[str, StageMetrics]
    sink_source_equiv_eps: float
    mean_delay_s: float

    @property
    def duration_s(self) -> float:
        return self.t_end_s - self.t_start_s


def _backlog_by_stage(report: TickReport) -> dict[str, float]:
    """Total input backlog per stage in one report."""
    totals: dict[str, float] = {}
    for (stage, _), v in report.input_backlog.items():
        totals[stage] = totals.get(stage, 0.0) + v
    return totals


def _net_backlog_by_stage(
    report: TickReport,
) -> dict[str, dict[tuple[str, str], float]]:
    """Inbound WAN backlog per (src_site, dst_site) grouped by dst stage."""
    grouped: dict[str, dict[tuple[str, str], float]] = {}
    for (_, dst, su, sd), v in report.net_backlog.items():
        d = grouped.setdefault(dst, {})
        link = (su, sd)
        d[link] = d.get(link, 0.0) + v
    return grouped


def _group_by_stage(
    flat: dict[tuple[str, str], float],
) -> dict[str, dict[str, float]]:
    """``{(stage, site): v}`` regrouped as ``{stage: {site: v}}``."""
    grouped: dict[str, dict[str, float]] = {}
    for (stage, site), v in flat.items():
        grouped.setdefault(stage, {})[site] = v
    return grouped


class GlobalMetricMonitor:
    """Accumulates tick reports into per-interval metric windows."""

    def __init__(self) -> None:
        self._reports: list[TickReport] = []

    def observe(self, report: TickReport) -> None:
        self._reports.append(report)

    @property
    def pending_ticks(self) -> int:
        return len(self._reports)

    def collect(
        self, sink_source_equiv: Callable[[float], float] | None = None
    ) -> MetricsWindow:
        """Aggregate and reset the current window.

        Args:
            sink_source_equiv: Optional callable converting sink emissions
                into source-equivalents (the engine provides one); identity
                when omitted.
        """
        reports = self._reports
        self._reports = []
        if not reports:
            return MetricsWindow(
                t_start_s=0.0,
                t_end_s=0.0,
                offered_eps=0.0,
                source_generation_eps={},
                stages={},
                sink_source_equiv_eps=0.0,
                mean_delay_s=float("nan"),
            )

        t_start = reports[0].t_s
        t_end = reports[-1].t_s
        # A window of n ticks spans n tick-lengths; infer the tick length
        # from the report spacing (a single report falls back to its own t).
        if len(reports) > 1:
            tick_len = (t_end - t_start) / (len(reports) - 1)
        else:
            tick_len = reports[0].t_s or 1.0
        span = max(tick_len * len(reports), 1e-9)

        # Single pass over the reports.  Per-site and per-link sums
        # accumulate flat, keyed by (stage, site) and (dst stage, src site,
        # dst site), and are grouped by stage once at the end; stage names
        # come from the union of the backlog key sets.  Per-key accumulation
        # order is unchanged (report order, then dict insertion order within
        # a report), and so is each grouped dict's insertion order (first
        # appearance), so the window aggregates are bit-for-bit the ones a
        # per-stage rescan produces.  ``net_sent`` folds several flows into
        # one (dst stage, link) key, so it still folds report by report.
        offered = 0.0
        source_gen: dict[str, float] = {}
        processed_by: dict[str, float] = {}
        arrived_by: dict[str, float] = {}
        emitted_by: dict[str, float] = {}
        processed_site: dict[tuple[str, str], float] = {}
        capacity_site: dict[tuple[str, str], float] = {}
        net_in: dict[tuple[str, str, str], float] = {}
        backlog_keys: set[tuple[str, str]] = set()
        net_backlog_keys: set[tuple[str, str, str, str]] = set()
        sink_events = 0.0
        delay_weight = 0.0
        for r in reports:
            offered += r.offered
            sink_events += r.sink_events
            delay_weight += r.sink_delay_weighted_s
            for name, gen in r.offered_by_source.items():
                source_gen[name] = source_gen.get(name, 0.0) + gen
            for name, v in r.processed.items():
                processed_by[name] = processed_by.get(name, 0.0) + v
            for name, v in r.arrived.items():
                arrived_by[name] = arrived_by.get(name, 0.0) + v
            for name, v in r.emitted.items():
                emitted_by[name] = emitted_by.get(name, 0.0) + v
            for key, v in r.processed_by_site.items():
                processed_site[key] = processed_site.get(key, 0.0) + v
            for key, v in r.capacity_by_site.items():
                capacity_site[key] = capacity_site.get(key, 0.0) + v
            for (_, dst, su, sd), v in r.net_sent.items():
                key = (dst, su, sd)
                net_in[key] = net_in.get(key, 0.0) + v
            backlog_keys.update(r.input_backlog)
            net_backlog_keys.update(r.net_backlog)
        by_site_by = _group_by_stage(processed_site)
        cap_site_by = _group_by_stage(capacity_site)
        net_in_by: dict[str, dict[tuple[str, str], float]] = {}
        for (dst, su, sd), v in net_in.items():
            net_in_by.setdefault(dst, {})[su, sd] = v
        stage_names = {stage for stage, _ in backlog_keys}
        stage_names.update(key[1] for key in net_backlog_keys)
        stage_names.update(processed_by)
        stage_names.update(arrived_by)
        stage_names.update(emitted_by)
        stage_names.update(net_in_by)
        source_gen_eps = {k: v / span for k, v in source_gen.items()}

        first, last = reports[0], reports[-1]
        backlog_first = _backlog_by_stage(first)
        backlog_last = _backlog_by_stage(last)
        site_backlog_last = _group_by_stage(last.input_backlog)
        net_first_by = _net_backlog_by_stage(first)
        net_last_by = _net_backlog_by_stage(last)

        stages: dict[str, StageMetrics] = {}
        for name in sorted(stage_names):
            processed = processed_by.get(name, 0.0)
            emitted = emitted_by.get(name, 0.0)
            by_site = by_site_by.get(name, {})
            cap_site = cap_site_by.get(name, {})
            input_backlog_last = backlog_last.get(name, 0.0)
            input_backlog_first = backlog_first.get(name, 0.0)
            net_last = net_last_by.get(name, {})
            net_first = net_first_by.get(name, {})
            net_in = net_in_by.get(name, {})
            growth = {
                link: net_last.get(link, 0.0) - net_first.get(link, 0.0)
                for link in set(net_last) | set(net_first)
            }
            lambda_p = processed / span
            stages[name] = StageMetrics(
                stage=name,
                lambda_p=lambda_p,
                lambda_i=arrived_by.get(name, 0.0) / span,
                lambda_o=emitted / span,
                selectivity=(emitted / processed) if processed > 0 else 0.0,
                processed_by_site={k: v / span for k, v in by_site.items()},
                capacity_by_site={k: v / span for k, v in cap_site.items()},
                input_backlog=input_backlog_last,
                input_backlog_growth=input_backlog_last - input_backlog_first,
                input_backlog_by_site=site_backlog_last.get(name, {}),
                net_backlog=net_last,
                net_backlog_growth=growth,
                net_inflow={k: v / span for k, v in net_in.items()},
            )

        if sink_source_equiv is not None:
            sink_equiv = sink_source_equiv(sink_events)
        else:
            sink_equiv = sink_events
        mean_delay = delay_weight / sink_events if sink_events > 0 else float("nan")

        return MetricsWindow(
            t_start_s=t_start,
            t_end_s=t_end,
            offered_eps=offered / span,
            source_generation_eps=source_gen_eps,
            stages=stages,
            sink_source_equiv_eps=sink_equiv / span,
            mean_delay_s=mean_delay,
        )
