"""Discrete-time simulation clock.

The reproduction advances in fixed ticks (1 s by default, matching the
granularity at which the paper reports delay and processing-ratio series).
:class:`SimClock` owns the current time and supports registering periodic
callbacks - the metric monitor, the checkpoint coordinator and the dynamics
driver all hang off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import SimulationError

TickCallback = Callable[[float], None]


@dataclass
class _PeriodicTask:
    name: str
    period_s: float
    callback: TickCallback
    next_due_s: float
    enabled: bool = True


class SimClock:
    """Fixed-step simulation clock with periodic callbacks.

    Callbacks registered via :meth:`every` fire *after* the tick they are due
    in, in registration order, receiving the current simulated time.  This
    mirrors how WASP's monitoring loop observes metrics aggregated over the
    preceding interval.
    """

    def __init__(self, tick_s: float = 1.0) -> None:
        if tick_s <= 0:
            raise SimulationError(f"tick_s must be > 0, got {tick_s}")
        self._tick_s = float(tick_s)
        self._now_s = 0.0
        self._tick_index = 0
        self._periodic: list[_PeriodicTask] = []
        self._callbacks_fired = 0

    @property
    def now_s(self) -> float:
        """Current simulated time in seconds."""
        return self._now_s

    @property
    def tick_s(self) -> float:
        return self._tick_s

    @property
    def tick_index(self) -> int:
        """Number of completed ticks."""
        return self._tick_index

    @property
    def callbacks_fired(self) -> int:
        """Periodic callbacks the last :meth:`advance` fired (a task due
        for several periods in one tick counts once per period).

        Zero means the last advance only moved time forward, so whatever
        state callbacks could touch is as it was before that advance.
        """
        return self._callbacks_fired

    def every(
        self,
        period_s: float,
        callback: TickCallback,
        *,
        name: str = "",
    ) -> str:
        """Register ``callback`` to fire every ``period_s`` seconds.

        The first invocation comes one full period in (a monitor with a
        40 s interval first fires at 40 s).

        Args:
            period_s: Period between invocations; must be positive.
            callback: Called with the current time once per period.
            name: Optional identifier (auto-generated when empty); used to
                enable/disable the task later.

        Returns:
            The task name.
        """
        if period_s <= 0:
            raise SimulationError(f"period_s must be > 0, got {period_s}")
        task_name = name or f"periodic-{len(self._periodic)}"
        if any(t.name == task_name for t in self._periodic):
            raise SimulationError(f"duplicate periodic task name: {task_name!r}")
        period = float(period_s)
        self._periodic.append(
            _PeriodicTask(task_name, period, callback, period)
        )
        return task_name

    def set_enabled(self, name: str, enabled: bool) -> None:
        """Enable or disable a periodic task by name."""
        for task in self._periodic:
            if task.name == name:
                task.enabled = enabled
                return
        raise SimulationError(f"no periodic task named {name!r}")

    def advance(self) -> float:
        """Advance the clock by one tick and fire any due callbacks.

        Returns:
            The new simulated time.
        """
        self._now_s += self._tick_s
        self._tick_index += 1
        self._callbacks_fired = 0
        for task in self._periodic:
            # A long tick may cover several periods; fire once per period to
            # keep the callback cadence faithful.
            while task.enabled and task.next_due_s <= self._now_s + 1e-9:
                self._callbacks_fired += 1
                task.callback(self._now_s)
                task.next_due_s += task.period_s
        return self._now_s
