"""Time-series and distribution recording for experiments.

Every experiment in Section 8 reports one or more of: average event delay
over time (Figures 8, 10b, 11b, 13a), processing ratio over time (Figure 9),
parallelism changes (Figures 10c, 11c), delay CDFs (Figures 10a, 11, 12b) and
percentile summaries (Figure 14a).  :class:`RunRecorder` collects the per-tick
samples needed to regenerate all of them from a single run.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.transaction import AttemptRecord

#: Sliding window of :meth:`RunRecorder.processing_ratio_series` (ticks).
PROCESSING_RATIO_WINDOW_TICKS = 30


@dataclass(frozen=True, slots=True)
class TickSample:
    """Aggregate measurements for one simulation tick.

    Attributes:
        t_s: Simulated time at the end of the tick.
        delay_s: Average end-to-end delay of events emitted this tick (NaN if
            no events were emitted).
        processed: Events emitted at the sinks this tick.
        offered: Events generated by the sources this tick.
        dropped: Events dropped this tick (Degrade baseline only).
        parallelism: Total number of running tasks across all stages.
        extra_slots: Slots in use beyond the initial deployment.
    """

    t_s: float
    delay_s: float
    processed: float
    offered: float
    dropped: float
    parallelism: int
    extra_slots: int


@dataclass(frozen=True)
class AdaptationEvent:
    """One line of the adaptation timeline, formatted from an attempt."""

    t_s: float
    action: str
    detail: str = ""


@dataclass(frozen=True)
class FaultEvent:
    """One chaos-injected fault (or its automatic revert)."""

    t_s: float
    kind: str
    detail: str = ""


class RunRecorder:
    """The one store of a run's facts: per-tick samples, the adaptation
    log and the chaos fault timeline.  Every other reading of them (the
    delay distribution, the adaptation lines, ``manager.attempt_log``) is
    a view."""

    def __init__(self, name: str = "run") -> None:
        self.name = name
        # The per-tick samples as one typed column per TickSample field,
        # in field order: 8 bytes a value instead of an object per tick.
        self._t_s = array("d")
        self._delay_s = array("d")
        self._processed = array("d")
        self._offered = array("d")
        self._dropped = array("d")
        self._parallelism = array("q")
        self._extra_slots = array("q")
        #: The adaptation log: every attempt's outcome, in order.  Only
        #: :meth:`record_adaptation` appends to it; the manager's
        #: ``attempt_log`` and ``history`` and :attr:`adaptations` read it.
        self.attempt_log: list[AttemptRecord] = []
        self._faults: list[FaultEvent] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def record_tick(
        self,
        t_s: float,
        delay_s: float,
        processed: float,
        offered: float,
        dropped: float,
        parallelism: int,
        extra_slots: int,
    ) -> None:
        """Append one tick's sample (the fields of :class:`TickSample`)."""
        self._t_s.append(t_s)
        self._delay_s.append(delay_s)
        self._processed.append(processed)
        self._offered.append(offered)
        self._dropped.append(dropped)
        self._parallelism.append(parallelism)
        self._extra_slots.append(extra_slots)

    def record_adaptation(self, entry: AttemptRecord) -> None:
        self.attempt_log.append(entry)

    def record_fault(self, t_s: float, kind: str, detail: str = "") -> None:
        """Log a chaos injection so experiments can assert on the timeline."""
        self._faults.append(FaultEvent(t_s, kind, detail))

    # ------------------------------------------------------------------ #
    # Series accessors
    # ------------------------------------------------------------------ #

    @property
    def samples(self) -> list[TickSample]:
        """The recorded samples, built from the columns on each read."""
        return [
            TickSample(*row)
            for row in zip(
                self._t_s, self._delay_s, self._processed, self._offered,
                self._dropped, self._parallelism, self._extra_slots,
            )
        ]

    @property
    def adaptations(self) -> list[AdaptationEvent]:
        """The adaptation lines of ``attempt_log``: ``rollback``;
        ``fallback:<label>`` or ``adaptation-abandoned``; then the
        committed kind or ``re-plan (long-term)``."""
        lines: list[AdaptationEvent] = []
        line = lines.append
        for entry in self.attempt_log:
            t_s, stage, attempt = entry.t_s, entry.stage, entry.attempt
            if entry.outcome == "rolled-back":
                detail = f"{stage}: {attempt}: {entry.detail}"
                line(AdaptationEvent(t_s, "rollback", detail))
            elif entry.outcome == "abandoned":
                detail = f"{stage}: {entry.detail}"
                line(AdaptationEvent(t_s, "adaptation-abandoned", detail))
            else:
                record = entry.record
                if attempt != "primary":
                    detail = f"{stage}: {entry.detail}"
                    line(AdaptationEvent(t_s, f"fallback:{attempt}", detail))
                action = (
                    "re-plan (long-term)" if record.long_term
                    else record.kind.value
                )
                line(AdaptationEvent(t_s, action, record.reason))
        return lines

    @property
    def faults(self) -> list[FaultEvent]:
        return list(self._faults)

    def times(self) -> np.ndarray:
        return np.array(self._t_s)

    def delay_series(self) -> np.ndarray:
        """Average emitted-event delay per tick (NaN where nothing emitted)."""
        return np.array(self._delay_s)

    def parallelism_series(self) -> np.ndarray:
        return np.array(self._parallelism, dtype=float)

    def extra_slots_series(self) -> np.ndarray:
        return np.array(self._extra_slots, dtype=float)

    def processing_ratio_series(self) -> np.ndarray:
        """Processing ratio over a sliding window of
        :data:`PROCESSING_RATIO_WINDOW_TICKS` ticks.

        The paper defines the ratio as processed rate over aggregated source
        rate over a time interval (Section 8.3); a ratio > 1 means queued
        events from earlier intervals are being consumed.
        """
        processed = np.array(self._processed)
        offered = np.array(self._offered)
        ratios = np.empty(len(processed))
        for i in range(len(processed)):
            lo = max(0, i - PROCESSING_RATIO_WINDOW_TICKS + 1)
            off = offered[lo : i + 1].sum()
            ratios[i] = processed[lo : i + 1].sum() / off if off > 0 else 1.0
        return ratios

    # ------------------------------------------------------------------ #
    # Distribution summaries
    # ------------------------------------------------------------------ #

    def _finite_delays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(delay_s, processed)`` of the busy ticks, in tick order.

        Idle ticks (nothing processed, NaN delay) are dropped here, the one
        filter: a NaN that reached sort/cumsum would silently poison every
        percentile, mean and CDF downstream instead of raising.
        """
        values = np.array(self._delay_s)
        weights = np.array(self._processed)
        keep = (weights > 0) & np.isfinite(values)
        return values[keep], weights[keep]

    def delay_percentile(self, q: float) -> float:
        """Weighted percentile of per-event delay (q in [0, 100])."""
        values, weights = self._finite_delays()
        if values.size == 0:
            return float("nan")
        order = np.argsort(values)
        values, weights = values[order], weights[order]
        cum = np.cumsum(weights)
        cutoff = q / 100.0 * cum[-1]
        idx = int(np.searchsorted(cum, cutoff))
        return float(values[min(idx, len(values) - 1)])

    def mean_delay(self) -> float:
        """Event-weighted mean delay across the whole run."""
        values, weights = self._finite_delays()
        if values.size == 0 or weights.sum() <= 0:
            return float("nan")
        return float(np.average(values, weights=weights))

    def delay_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (delay, cumulative fraction) pairs for a CDF plot, at
        most 200 of them."""
        values, weights = self._finite_delays()
        if values.size == 0:
            return np.array([]), np.array([])
        order = np.argsort(values)
        values, weights = values[order], weights[order]
        cum = np.cumsum(weights) / weights.sum()
        if len(values) <= 200:
            return values, cum
        idx = np.linspace(0, len(values) - 1, 200).astype(int)
        return values[idx], cum[idx]

    def total_offered(self) -> float:
        return float(sum(self._offered))

    def total_dropped(self) -> float:
        return float(sum(self._dropped))

    def processed_fraction(self) -> float:
        """Fraction of offered events that were ultimately processed.

        Computed from drops rather than sink counts so that selectivity < 1
        operators (aggregations emit fewer events than they consume) do not
        skew the quality metric of Figure 12a.
        """
        offered = self.total_offered()
        if offered == 0:
            return 1.0
        return max(0.0, 1.0 - self.total_dropped() / offered)
