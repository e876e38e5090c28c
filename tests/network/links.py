"""Link tables only tests read: the link-coverage witness shared by the
topology and testbed tests (the engine and the planner look links up pair
by pair, never ask whether the whole matrix is defined), and the WAN
monitor's whole measurement table (the controller reads one link at a
time)."""

from __future__ import annotations

from repro.network.monitor import WanMonitor
from repro.network.topology import Topology


def fully_connected(topology: Topology) -> bool:
    """True if every ordered pair of distinct sites has a defined link."""
    links = topology.link_bandwidths()
    names = topology.site_names
    return all((a, b) in links for a in names for b in names if a != b)


def bandwidth_matrix(monitor: WanMonitor) -> dict[tuple[str, str], float]:
    """Measured bandwidth for every known link, in the order links were
    first measured (the former ``WanMonitor.bandwidth_matrix``)."""
    return dict(monitor._bandwidth)
