"""WAN Monitor: periodic background measurement of inter-site links.

The WASP prototype adds "a network monitoring module (WAN Monitor) that
periodically monitors the pair-wise available [bandwidth] between sites in
the background" (Section 8.1).  The controller plans against these
*measurements*, never the ground truth - the measurement can be stale (it
refreshes only once per monitoring interval) and noisy (a configurable
relative error), which is exactly the mis-estimation the alpha headroom of
the placement ILP exists to absorb (Section 4.1).
"""

from __future__ import annotations

from operator import mul

import numpy as np

from ..errors import ConfigurationError
from .topology import Topology


class WanMonitor:
    """Measures pairwise bandwidth/latency with optional noise and staleness.

    Args:
        topology: Ground-truth topology to observe.
        rng: Stream for measurement noise.
        relative_error: Multiplicative error bound; each measurement is the
            true value times a factor uniform in [1-e, 1+e].
    """

    def __init__(
        self,
        topology: Topology,
        rng: np.random.Generator,
        *,
        relative_error: float = 0.0,
    ) -> None:
        if relative_error < 0 or relative_error >= 1:
            raise ConfigurationError(
                f"relative_error must be in [0, 1), got {relative_error}"
            )
        self._topology = topology
        self._rng = rng
        self._relative_error = float(relative_error)
        # Measurements live in flat per-link tables.  ``_bandwidth`` keeps
        # the order links were first measured in; a link is measured iff
        # it has a bandwidth entry.
        self._bandwidth: dict[tuple[str, str], float] = {}
        self._latency: dict[tuple[str, str], float] = {}
        #: ``Topology._links_version`` the latency table was last synced at.
        #: Latencies change only with a link redefinition, so a refresh at
        #: an unchanged version can keep the table as it is.
        self._latency_version = -1
        #: The ``link_bandwidths()`` table a noiseless refresh last copied;
        #: while the topology serves the same table, a refresh has nothing
        #: to write.
        self._synced_from = None

    def _noise(self, n: int) -> list[float]:
        """``n`` multiplicative noise factors (same draws as ``n`` scalar
        ``uniform`` calls on the stream)."""
        e = self._relative_error
        return self._rng.uniform(1.0 - e, 1.0 + e, size=n).tolist()

    def refresh(self) -> None:
        """Re-measure every defined link (one monitoring round)."""
        topology = self._topology
        current = topology.link_bandwidths()
        if self._relative_error > 0:
            # Noise is drawn every round, so the stream position does not
            # depend on whether the WAN moved.
            noise = self._noise(len(current))
            noisy = map(mul, current.values(), noise)
            self._bandwidth.update(zip(current, noisy))
        elif current is not self._synced_from:
            # A noiseless remeasure writes the current value, so only a
            # new table (a factor write or a link change) has news.
            self._bandwidth.update(current)
            self._synced_from = current
        if self._latency_version != topology._links_version:
            latency = topology.latency_ms
            self._latency.update({key: latency(*key) for key in current})
            self._latency_version = topology._links_version

    def remeasure(self, src: str, dst: str) -> float:
        """Re-measure one directed link immediately (WANify-style re-gauging).

        The transactional executor calls this before retrying a failed
        migration: the stale monitoring-round sample may have promised
        bandwidth a mid-operation collapse took away, and planning the retry
        against a fresh sample is what makes the retry meaningful.  Returns
        the new measurement.
        """
        if src == dst:
            return self._topology.bandwidth_mbps(src, dst)
        noise = self._noise(1)[0] if self._relative_error > 0 else 1.0
        bandwidth = self._topology.bandwidth_mbps(src, dst) * noise
        key = (src, dst)
        self._latency[key] = self._topology.latency_ms(src, dst)
        self._bandwidth[key] = bandwidth
        return bandwidth

    def bandwidth_mbps(self, src: str, dst: str) -> float:
        """Most recent bandwidth measurement for ``src -> dst``.

        Intra-site transfers report the topology's local capacity directly.
        Falls back to a fresh ground-truth read if the link has never been
        measured (i.e. before the first monitoring round).
        """
        if src == dst:
            return self._topology.bandwidth_mbps(src, dst)
        measured = self._bandwidth.get((src, dst))
        if measured is None:
            return self._topology.bandwidth_mbps(src, dst)
        return measured

    def latency_ms(self, src: str, dst: str) -> float:
        """Most recent latency measurement for ``src -> dst``."""
        if src == dst:
            return self._topology.latency_ms(src, dst)
        measured = self._latency.get((src, dst))
        if measured is None:
            return self._topology.latency_ms(src, dst)
        return measured
