"""Machine-speed calibration for the end-to-end timings.

On a shared machine the CPU's speed drifts by tens of percent over minutes
(neighbours come and go), far more than any one run can average away.  A
small fixed pure-Python kernel - dict updates and float arithmetic, the
kind of work the simulator does - is timed every :data:`PERIOD_S` between
the steps of every run; the kernel's first-decile time against its time
at reference speed gives the run's slowdown, and every end-to-end timing is
reported at reference speed.  The kernel never touches the program, so a
change to the program moves the scaled figures exactly as it moves the raw
ones; the run record keeps the raw figures and the slowdown.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: The kernel's duration at reference speed: its median on an idle
#: 2-vCPU x86-64 cloud VM with CPython 3.  It only sets the scale.
REFERENCE_S = 0.002

#: Wall seconds between two kernel samples while work runs.
PERIOD_S = 0.2


def kernel() -> float:
    """Dict updates and float arithmetic.  Its one dict is the only
    container it allocates, so no garbage collection lands in it."""
    totals: dict[int, float] = {}
    acc = 0.0
    for i in range(12_000):
        key = i % 211
        totals[key] = totals.get(key, 0.0) + i * 0.5
        acc += (i % 13) * 1.5
    return acc + sum(totals.values())


class Calibration:
    """Kernel timings taken every ``period_s`` through a run."""

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.samples: list[float] = []
        #: Wall seconds spent in the kernel (callers subtract it).
        self.spent_s = 0.0
        self._last = float("-inf")

    def tick(self) -> None:
        """Sample the kernel if ``period_s`` has passed since the last
        sample; call between timed operations."""
        start = perf_counter()
        if start - self._last < self.period_s:
            return
        kernel()
        self._last = perf_counter()
        self.samples.append(self._last - start)
        self.spent_s += self._last - start

    def slowdown(self) -> float:
        """How much slower than reference speed the machine ran (> 1 when
        slower); divide raw times by it to get reference-speed times.

        Read at the kernel's first decile: the job timings keep each job's
        fastest repeat, so the machine's speed is read at its fast moments
        too, past bursts of contention."""
        return statistics.quantiles(self.samples, n=10)[0] / REFERENCE_S
