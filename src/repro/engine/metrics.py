"""Runtime metric monitoring (Sections 3.1 and 3.2).

Each Task Manager's Local Metric Monitor gathers task-level metrics and
reports them to the Global Metric Monitor, which aggregates them per operator
over the past time interval.  A window carries what the controller reads:
per stage, the processing rate ``lambda_P = sum_i lambda_P[i]`` and per-site
capacity (utilisation), input and WAN backlogs with their growth and the
inbound WAN rates (diagnosis, Section 3.2); source generation rates (the
lambda-hat estimate, Section 3.3); the offered rate and the sink delay.
Input and output rates and observed selectivities are not aggregated: the
estimator works from source generation and the plan's sigma, which the
fluid engine realises exactly.

In the fluid engine, task-level observations arrive as
:class:`~repro.engine.runtime.TickReport` objects, and the engine adds each
tick's rates into the window's running sums
(:class:`~repro.engine.runtime.WindowSums`) as it writes them - the Local
Metric Monitor's aggregation.  The :class:`GlobalMetricMonitor` builds a
:class:`MetricsWindow` from those sums when the controller collects it,
which starts the next window (one monitoring interval, 40 s in the paper's
setup).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .runtime import TICK_S, EngineRuntime, TickReport, WindowSums


class StageMetrics(NamedTuple):
    """Aggregated execution metrics for one stage over a window.

    Rates are events/second averaged over the window.  ``backlog_growth``
    values compare the window's last tick against its first, which is what
    distinguishes a standing (already-drained) queue from a growing one.
    Immutable; a named tuple because ``collect`` builds one per stage per
    window, and a tuple is built in a third of a frozen dataclass's time.
    """

    stage: str
    lambda_p: float
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
    """Builds per-interval metric windows from the engine's running sums.

    The monitor binds the runtime's :class:`WindowSums` (an unbound
    monitor owns empty sums, which callers may fill themselves): the
    engine adds each tick's values into them as it writes its report, so
    reading a window costs the number of keys, not ticks times keys.
    :meth:`observe` keeps only what the sums cannot hold - the window's
    first and last report (backlog level and growth) and the union of
    backlog keys (stage names).  :meth:`peek` reads the window and keeps
    it, so later ticks continue the same additions; :meth:`collect` reads
    it and starts the next one.  A window covers exactly the ticks between
    two :meth:`collect` calls.
    """

    def __init__(self, runtime: EngineRuntime | None = None) -> None:
        self.sums = (
            runtime.bind_window() if runtime is not None else WindowSums()
        )
        self._reset()

    def _reset(self) -> None:
        """Start an empty window."""
        self.sums.reset()
        self._ticks = 0
        self._first: TickReport | None = None
        self._last: TickReport | None = None
        self._backlog_keys: set[tuple[str, str]] = set()
        self._net_backlog_keys: set[tuple[str, str, str, str]] = set()

    def observe(self, report: TickReport) -> None:
        if self._first is None:
            self._first = report
        self._last = report
        self._ticks += 1
        self._backlog_keys.update(report.input_backlog)
        self._net_backlog_keys.update(report.net_backlog)

    def collect(self) -> MetricsWindow:
        """Aggregate and reset the current window."""
        window = self._window()
        self._reset()
        return window

    def peek(self) -> MetricsWindow:
        """Aggregate the current window without resetting it."""
        return self._window()

    def _window(self) -> MetricsWindow:
        """The window of the ticks observed so far."""
        first, last = self._first, self._last
        if first is None:
            return MetricsWindow(
                t_start_s=0.0,
                t_end_s=0.0,
                offered_eps=0.0,
                source_generation_eps={},
                stages={},
                mean_delay_s=float("nan"),
            )
        sums = self.sums
        # A window of n ticks spans n tick lengths.
        span = max(self._ticks * TICK_S, 1e-9)

        processed_by = sums.processed
        cap_site_by = sums.capacity
        net_in_by: dict[str, dict[tuple[str, str], float]] = {}
        for (dst, su, sd), cell in sums.net_in.items():
            net_in_by.setdefault(dst, {})[su, sd] = cell.value
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
            cap_site = cap_site_by.get(name)
            processed = processed_by.get(name)
            input_backlog_last = backlog_last.get(name, 0.0)
            input_backlog_first = backlog_first.get(name, 0.0)
            net_last = net_last_by.get(name)
            net_first = net_first_by.get(name)
            net_in = net_in_by.get(name)
            # Most stages have no WAN backlog at either end of the window
            # and no inflow: their WAN tables are empty, built directly.
            if net_last is None and net_first is None:
                net_last, growth = {}, {}
            else:
                net_last = net_last or {}
                net_first = net_first or {}
                growth = {
                    link: net_last.get(link, 0.0) - net_first.get(link, 0.0)
                    for link in set(net_last) | set(net_first)
                }
            stages[name] = StageMetrics(
                stage=name,
                lambda_p=(
                    processed.value if processed is not None else 0.0
                ) / span,
                capacity_by_site=(
                    {k: cell.value / span for k, cell in cap_site.items()}
                    if cap_site else {}
                ),
                input_backlog=input_backlog_last,
                input_backlog_growth=input_backlog_last - input_backlog_first,
                input_backlog_by_site=site_backlog_last.get(name, {}),
                net_backlog=net_last,
                net_backlog_growth=growth,
                net_inflow=(
                    {k: v / span for k, v in net_in.items()}
                    if net_in else {}
                ),
            )

        sink_events = sums.sink_events
        mean_delay = (
            sums.delay_weight / sink_events if sink_events > 0 else float("nan")
        )
        return MetricsWindow(
            t_start_s=first.t_s,
            t_end_s=last.t_s,
            offered_eps=sums.offered / span,
            source_generation_eps={
                k: cell.value / span for k, cell in sums.source_gen.items()
            },
            stages=stages,
            mean_delay_s=mean_delay,
        )
