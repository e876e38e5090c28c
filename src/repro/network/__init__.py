"""WAN substrate: sites, topology, bandwidth processes, monitoring."""

from .bandwidth import BandwidthProcess, BandwidthStats, oregon_ohio_trace
from .monitor import WanMonitor
from .relay import RelayPath, best_relay_path, relayed_bandwidth_lookup
from .site import Site, SiteKind
from .topology import Link, Topology
from .traces import TestbedSpec, network_distributions, paper_testbed

__all__ = [
    "BandwidthProcess",
    "BandwidthStats",
    "Link",
    "RelayPath",
    "Site",
    "SiteKind",
    "TestbedSpec",
    "Topology",
    "WanMonitor",
    "best_relay_path",
    "network_distributions",
    "oregon_ohio_trace",
    "paper_testbed",
    "relayed_bandwidth_lookup",
]
