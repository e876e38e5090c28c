"""The Global Metric Monitor before the engine kept the window's sums,
kept as a test oracle.

:class:`ReferenceMetricMonitor` is the previous
:class:`repro.engine.metrics.GlobalMetricMonitor`, verbatim apart from its
name, its imports and where capacities come from: it buffers every
observed :class:`TickReport` and folds the buffer key by key when the
window is read.  Tick reports no longer carry per-site capacities, so
:meth:`ReferenceMetricMonitor.observe` derives each (stage, site) row's
capacity from the runtime's plan, sites and suspensions, in the engine's
formula and operand order (bit-equal on both backends).
``tests/engine/test_window_equivalence.py`` feeds it the same reports as
the live monitor and asserts ``repr``-equal windows (values and key order)
at every ``collect`` and ``peek``.
"""

from __future__ import annotations

from repro.engine.metrics import MetricsWindow, StageMetrics
from repro.engine.runtime import TickReport


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


class ReferenceMetricMonitor:
    """Accumulates tick reports into per-interval metric windows.

    Observed reports are buffered and folded into running per-key sums
    when the window is read.  :meth:`peek` folds the buffer and keeps the
    sums, so a later read continues the same additions in the same order
    and a peeked report is not held any longer; :meth:`collect` is a peek
    followed by a reset.
    """

    def __init__(self, runtime) -> None:
        self._runtime = runtime
        #: When the next observed tick started (suspensions are read then).
        self._tick_start_s = runtime.now_s
        self._reports: list[tuple[TickReport, dict]] = []
        self._reset()

    def _reset(self) -> None:
        """Start an empty window."""
        self._folded = 0
        self._first: TickReport | None = None
        self._last: TickReport | None = None
        self._offered = 0.0
        self._sink_events = 0.0
        self._delay_weight = 0.0
        self._source_gen: dict[str, float] = {}
        self._processed: dict[str, float] = {}
        self._capacity_site: dict[tuple[str, str], float] = {}
        self._net_in: dict[tuple[str, str, str], float] = {}
        self._backlog_keys: set[tuple[str, str]] = set()
        self._net_backlog_keys: set[tuple[str, str, str, str]] = set()

    def observe(self, report: TickReport) -> None:
        self._reports.append((report, self._capacities()))
        self._tick_start_s = self._runtime.now_s

    def _capacities(self) -> dict[tuple[str, str], float]:
        """Per (stage, site) row of the tick just run, in the engine's
        row order: ``n_tasks * rate / cost * dt``, 0.0 on a failed site or
        while the stage is suspended."""
        runtime = self._runtime
        dt = runtime._config.tick_s
        start = self._tick_start_s
        capacities: dict[tuple[str, str], float] = {}
        for stage in runtime.plan.topological_stages():
            suspended = start < runtime.suspended_until(stage.name)
            placement = stage.placement()
            for site in sorted(placement):
                site_obj = runtime.topology.site(site)
                if suspended or site_obj.failed:
                    capacity = 0.0
                else:
                    capacity = (
                        placement[site] * site_obj.effective_proc_rate_eps
                        / stage.cost * dt
                    )
                capacities[stage.name, site] = capacity
        return capacities

    @property
    def pending_ticks(self) -> int:
        return self._folded + len(self._reports)

    def collect(self) -> MetricsWindow:
        """Aggregate and reset the current window."""
        window = self.peek()
        self._reset()
        return window

    def peek(self) -> MetricsWindow:
        """Aggregate the current window without resetting it."""
        reports = self._reports
        if reports:
            self._reports = []
            self._fold(reports)
        if not self._folded:
            return MetricsWindow(
                t_start_s=0.0,
                t_end_s=0.0,
                offered_eps=0.0,
                source_generation_eps={},
                stages={},
                mean_delay_s=float("nan"),
            )
        return self._window()

    def _fold(self, reports: list[tuple[TickReport, dict]]) -> None:
        """Add ``reports`` to the running sums.

        Per-site and per-link sums accumulate flat, keyed by (stage, site)
        and (dst stage, src site, dst site), and are grouped by stage when
        the window is built; stage names come from the union of the backlog
        key sets.  Per-key accumulation order is report order, then dict
        insertion order within a report, each key starting from 0.0 in
        explicit left-to-right loops (not ``sum()``, which is compensated
        from CPython 3.12 on); each grouped dict keeps first-appearance
        order, so the window aggregates are bit-for-bit the ones a
        per-stage rescan produces.  ``net_sent`` folds several flows into
        one (dst stage, link) key, so it still folds report by report.
        """
        if self._first is None:
            self._first = reports[0][0]
        self._last = reports[-1][0]
        self._folded += len(reports)
        offered = self._offered
        sink_events = self._sink_events
        delay_weight = self._delay_weight
        source_gen = self._source_gen
        processed_by = self._processed
        capacity_site = self._capacity_site
        net_in = self._net_in
        backlog_keys = self._backlog_keys
        net_backlog_keys = self._net_backlog_keys
        for r, capacities in reports:
            offered += r.offered
            sink_events += r.sink_events
            delay_weight += r.sink_delay_weighted_s
            for name, gen in r.offered_by_source.items():
                source_gen[name] = source_gen.get(name, 0.0) + gen
            for name, v in r.processed.items():
                processed_by[name] = processed_by.get(name, 0.0) + v
            for key, v in capacities.items():
                capacity_site[key] = capacity_site.get(key, 0.0) + v
            for (_, dst, su, sd), v in r.net_sent.items():
                key = (dst, su, sd)
                net_in[key] = net_in.get(key, 0.0) + v
            backlog_keys.update(r.input_backlog)
            net_backlog_keys.update(r.net_backlog)
        self._offered = offered
        self._sink_events = sink_events
        self._delay_weight = delay_weight

    def _window(self) -> MetricsWindow:
        """The window of the reports folded so far."""
        first, last = self._first, self._last
        n = self._folded
        t_start = first.t_s
        t_end = last.t_s
        # A window of n ticks spans n tick-lengths; infer the tick length
        # from the report spacing (a single report falls back to its own t).
        if n > 1:
            tick_len = (t_end - t_start) / (n - 1)
        else:
            tick_len = t_start or 1.0
        span = max(tick_len * n, 1e-9)

        processed_by = self._processed
        cap_site_by = _group_by_stage(self._capacity_site)
        net_in_by: dict[str, dict[tuple[str, str], float]] = {}
        for (dst, su, sd), v in self._net_in.items():
            net_in_by.setdefault(dst, {})[su, sd] = v
        stage_names = {stage for stage, _ in self._backlog_keys}
        stage_names.update(key[1] for key in self._net_backlog_keys)
        stage_names.update(processed_by)
        stage_names.update(net_in_by)

        backlog_first = _backlog_by_stage(first)
        backlog_last = _backlog_by_stage(last)
        site_backlog_last = _group_by_stage(last.input_backlog)
        net_first_by = _net_backlog_by_stage(first)
        net_last_by = _net_backlog_by_stage(last)

        stages: dict[str, StageMetrics] = {}
        for name in sorted(stage_names):
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
            stages[name] = StageMetrics(
                stage=name,
                lambda_p=processed_by.get(name, 0.0) / span,
                capacity_by_site={k: v / span for k, v in cap_site.items()},
                input_backlog=input_backlog_last,
                input_backlog_growth=input_backlog_last - input_backlog_first,
                input_backlog_by_site=site_backlog_last.get(name, {}),
                net_backlog=net_last,
                net_backlog_growth=growth,
                net_inflow={k: v / span for k, v in net_in.items()},
            )

        sink_events = self._sink_events
        mean_delay = (
            self._delay_weight / sink_events if sink_events > 0 else float("nan")
        )
        return MetricsWindow(
            t_start_s=t_start,
            t_end_s=t_end,
            offered_eps=self._offered / span,
            source_generation_eps={
                k: v / span for k, v in self._source_gen.items()
            },
            stages=stages,
            mean_delay_s=mean_delay,
        )
