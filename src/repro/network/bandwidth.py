"""Stochastic WAN-bandwidth processes.

Figure 2 of the paper shows a one-day iperf measurement between the Oregon
and Ohio EC2 regions sampled every 5 minutes: the available bandwidth hovers
around a mean with deviations of 25-93 % and occasional deep dips, consistent
with inter-data-center topology changes every 5-10 minutes reported by B4 and
SWAN.  :class:`BandwidthProcess` reproduces those statistics with a
mean-reverting (AR(1)) process plus a heavy-tailed jump term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class BandwidthStats:
    """Summary statistics of a bandwidth trace (used to validate Figure 2)."""

    mean_mbps: float
    min_mbps: float
    max_mbps: float
    min_deviation: float
    max_deviation: float

    @classmethod
    def from_trace(cls, trace: np.ndarray) -> "BandwidthStats":
        mean = float(np.mean(trace))
        deviations = np.abs(trace - mean) / mean
        return cls(
            mean_mbps=mean,
            min_mbps=float(np.min(trace)),
            max_mbps=float(np.max(trace)),
            min_deviation=float(np.min(deviations)),
            max_deviation=float(np.max(deviations)),
        )


#: Shape of the Figure 2 process: how sticky the current level is (AR(1)
#: coefficient), the noise as a fraction of the mean, the chance and the
#: largest depth (a fraction of the mean) of a contention dip per step,
#: and the floor as a fraction of the mean.
PHI = 0.75
SIGMA_FRAC = 0.22
DIP_PROBABILITY = 0.06
DIP_DEPTH = 0.75
FLOOR_FRAC = 0.05


class BandwidthProcess:
    """Mean-reverting bandwidth process with occasional contention dips.

    The process evolves as ``b[t+1] = mean + PHI * (b[t] - mean) + noise``
    with ``PHI`` controlling how sticky the current level is, plus a dip term
    that occasionally drags the link down to a fraction of its mean,
    modelling cross-traffic contention and topology reconfiguration.
    """

    def __init__(self, rng: np.random.Generator, mean_mbps: float) -> None:
        if mean_mbps <= 0:
            raise ConfigurationError(f"mean_mbps must be > 0, got {mean_mbps}")
        self._rng = rng
        self._mean = float(mean_mbps)
        self._sigma = SIGMA_FRAC * self._mean
        self._floor = FLOOR_FRAC * self._mean
        self._value = self._mean

    @property
    def mean_mbps(self) -> float:
        return self._mean

    def step(self) -> float:
        """Advance one measurement interval and return the new bandwidth."""
        noise = self._rng.normal(0.0, self._sigma)
        value = self._mean + PHI * (self._value - self._mean) + noise
        if self._rng.random() < DIP_PROBABILITY:
            value -= DIP_DEPTH * self._mean * self._rng.random()
        self._value = float(min(max(value, self._floor), 2.0 * self._mean))
        return self._value

    def trace(self, samples: int) -> np.ndarray:
        """Generate ``samples`` consecutive measurements."""
        if samples < 1:
            raise ConfigurationError(f"samples must be >= 1, got {samples}")
        return np.array([self.step() for _ in range(samples)])


def oregon_ohio_trace(rng: np.random.Generator) -> np.ndarray:
    """A Figure-2-like one-day trace: 288 five-minute samples around a
    110 Mbps mean."""
    return BandwidthProcess(rng, 110.0).trace(288)


def thirty_minute_rollup(trace_5min: np.ndarray) -> np.ndarray:
    """Average a 5-minute trace into 30-minute intervals (Figure 2's x-axis)."""
    usable = len(trace_5min) - len(trace_5min) % 6
    if usable == 0:
        return np.array([])
    return trace_5min[:usable].reshape(-1, 6).mean(axis=1)
