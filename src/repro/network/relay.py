"""Relay routing for bulk transfers (Section 2.2, citing Lai et al.).

The paper notes that "higher WAN bandwidth between data centers can be
achieved by leveraging higher VM instances" and cites *"To relay or not to
relay for inter-cloud transfers?"*: when the direct link between two sites
is weak, forwarding through an intermediate site whose links to both ends
are fast can multiply the effective bandwidth.

Interactive stream traffic rarely benefits (the relay adds latency on every
event), but **state migration** is a bulk transfer whose only metric is
completion time - exactly the relay sweet spot.  This module finds, for a
(src, dst) pair, the best single-relay path under pipelined forwarding
(effective bandwidth = min of the two hop bandwidths, discounted for the
forwarding overhead), and the controller can use it to shrink the migration
transition the Section 8.7 experiments measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ..errors import TopologyError

#: Pipelined relay forwarding is not free: the relay re-serializes the
#: stream, so the effective bandwidth is the bottleneck hop discounted by
#: this factor.
RELAY_EFFICIENCY = 0.9


@dataclass(frozen=True)
class RelayPath:
    """A (possibly relayed) route for one bulk transfer."""

    src: str
    dst: str
    via: str | None
    bandwidth_mbps: float

    def hops(self) -> list[tuple[str, str]]:
        if self.via is None:
            return [(self.src, self.dst)]
        return [(self.src, self.via), (self.via, self.dst)]


def best_relay_path(
    src: str,
    dst: str,
    candidates: Iterable[str],
    bandwidth: Callable[[str, str], float],
) -> RelayPath:
    """The fastest route from ``src`` to ``dst``: direct or single-relay.

    Args:
        src: Source site.
        dst: Destination site.
        candidates: Sites eligible to forward (typically every site; the
            src/dst themselves are skipped).
        bandwidth: Measured ``(a, b) -> Mbps`` lookup (the WAN monitor).

    A relayed path is discounted by :data:`RELAY_EFFICIENCY`.

    Returns:
        The best path; falls back to direct when no relay beats it.
    """
    if src == dst:
        raise TopologyError("relay routing needs distinct src and dst")
    direct = RelayPath(src, dst, None, bandwidth(src, dst))
    best = direct
    for via in candidates:
        if via in (src, dst):
            continue
        effective = (
            min(bandwidth(src, via), bandwidth(via, dst)) * RELAY_EFFICIENCY
        )
        if effective > best.bandwidth_mbps:
            best = RelayPath(src, dst, via, effective)
    return best


def relayed_bandwidth_lookup(
    candidates: Iterable[str],
    bandwidth: Callable[[str, str], float],
) -> Callable[[str, str], float]:
    """A bandwidth lookup that transparently routes via the best relay.

    Drop-in replacement for the monitor's ``bandwidth_mbps`` in migration
    planning: every (src, dst) query returns the best achievable bulk
    bandwidth, direct or relayed.  Stream placement keeps using the direct
    lookup (relaying live streams would add per-event latency).
    """
    sites = list(candidates)

    def lookup(src: str, dst: str) -> float:
        if src == dst:
            return bandwidth(src, dst)
        return best_relay_path(src, dst, sites, bandwidth).bandwidth_mbps

    return lookup
