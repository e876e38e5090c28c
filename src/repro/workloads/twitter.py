"""Synthetic geo-tagged Twitter trace (Section 8.3).

The paper replays a real Twitter trace whose events are distributed by the
geo-location embedded in each tweet, so the workload covers the *spatial and
temporal* distribution of actual events: Twitter activity is strongly skewed
across regions and day hours carry ~2x the workload of night hours
(Section 2.2, citing the "global Twitter heartbeat" study).

Without the proprietary trace, we synthesize the same two properties:

* **spatial skew** - per-source weights drawn from a Zipf-like power law
  and fixed per run (a seed reproduces the same "geography");
* **diurnal cycle** - a sinusoidal day/night shape per source, phase-shifted
  by the source's home-region longitude so peaks roll around the globe,
  calibrated to the 2x day/night ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .base import ShapedWorkload

#: Tweet size on the wire (truncated JSON with geo tag).
TWEET_EVENT_BYTES = 300.0
#: Size after filtering/extracting (topic, country, timestamp).
TOPIC_EVENT_BYTES = 90.0
#: Fraction of tweets surviving the language/attribute filter.
TWEET_FILTER_SELECTIVITY = 0.3
#: Simulated day length.  Experiments run for ~30 simulated minutes; a real
#: 24 h cycle would look constant, so the synthetic trace compresses the
#: diurnal period (the paper replays its trace "scaled" - Table 3 - which
#: has the same effect of exercising temporal variation within a run).
DEFAULT_DAY_LENGTH_S = 1_200.0
#: Day/night workload ratio (Section 2.2 reports ~2x).
DAY_NIGHT_RATIO = 2.0


@dataclass(frozen=True)
class TwitterSpec:
    """Knobs for the synthetic Twitter workload."""

    mean_rate_eps: float = 10_000.0
    zipf_exponent: float = 0.4
    day_length_s: float = DEFAULT_DAY_LENGTH_S
    day_night_ratio: float = DAY_NIGHT_RATIO

    def __post_init__(self) -> None:
        if self.mean_rate_eps <= 0:
            raise ConfigurationError("mean_rate_eps must be > 0")
        if self.zipf_exponent < 0:
            raise ConfigurationError("zipf_exponent must be >= 0")
        if self.day_length_s <= 0:
            raise ConfigurationError("day_length_s must be > 0")
        if self.day_night_ratio < 1:
            raise ConfigurationError("day_night_ratio must be >= 1")


class TwitterWorkload(ShapedWorkload):
    """Zipf-skewed, diurnally-shaped tweet streams."""

    def __init__(
        self,
        sources: list[str],
        rng: np.random.Generator,
        spec: TwitterSpec | None = None,
    ) -> None:
        spec = spec or TwitterSpec()
        self._spec = spec
        n = len(sources)
        if n == 0:
            raise ConfigurationError("TwitterWorkload needs sources")
        # Zipf-like weights over a random permutation of the sources, so the
        # "largest country" is not always the first site alphabetically.
        ranks = rng.permutation(n) + 1
        weights = ranks.astype(float) ** (-spec.zipf_exponent)
        weights /= weights.sum()
        rates = {
            name: spec.mean_rate_eps * n * w
            for name, w in zip(sorted(sources), weights.tolist())
        }
        super().__init__(rates)
        # Diurnal phase per source: rolled around the globe.
        self._phase = {name: i / n for i, name in enumerate(sorted(sources))}
        # Amplitude from the day/night ratio r: (1+a)/(1-a) = r.
        r = spec.day_night_ratio
        self._amplitude = (r - 1) / (r + 1)

    @property
    def spec(self) -> TwitterSpec:
        return self._spec

    def shape(self, source_stage: str, t_s: float) -> float:
        phase = self._phase.get(source_stage, 0.0)
        angle = 2 * math.pi * (t_s / self._spec.day_length_s + phase)
        return 1.0 + self._amplitude * math.sin(angle)
