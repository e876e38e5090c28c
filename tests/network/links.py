"""Link-coverage witness shared by the topology and testbed tests: the
engine and the planner look links up pair by pair, never ask whether the
whole matrix is defined."""

from __future__ import annotations

from repro.network.topology import Topology


def fully_connected(topology: Topology) -> bool:
    """True if every ordered pair of distinct sites has a defined link."""
    links = topology.link_bandwidths()
    names = topology.site_names
    return all((a, b) in links for a in names for b in names if a != b)
