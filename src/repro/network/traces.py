"""Testbed topology generation.

Section 8.2 derives the evaluation testbed from real measurements: the
data-center mesh is configured from a 1-day bandwidth measurement between 8
Amazon EC2 regions (Oregon, Ohio, Ireland, Frankfurt, Seoul, Singapore,
Mumbai, Sao Paulo), and edge connectivity from Akamai's State of the Internet
report (public-Internet average < 10 Mbps).  The testbed has 16 nodes: 8 edge
nodes with 2-4 slots and 8 data-center nodes with 8 slots, 1 CPU / 1 GB per
slot.

We reproduce the same regime: data-center links get distance-derived
latencies (great-circle distance over fibre with a routing-inflation factor)
and bandwidths anti-correlated with distance, clipped to the 25-250 Mbps band
visible in Figure 7a; edge links draw from a lognormal centred below 10 Mbps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .site import Site, SiteKind
from .topology import Topology

#: The 8 EC2 regions of Section 8.2 with approximate coordinates.
EC2_REGIONS: dict[str, tuple[float, float]] = {
    "oregon": (45.52, -122.68),
    "ohio": (39.96, -83.00),
    "ireland": (53.35, -6.26),
    "frankfurt": (50.11, 8.68),
    "seoul": (37.57, 126.98),
    "singapore": (1.35, 103.82),
    "mumbai": (19.08, 72.88),
    "sao-paulo": (-23.55, -46.63),
}

#: Slots per data-center node (Section 8.2).
DC_SLOTS = 8
#: Slots per edge node cycle through 2-4 (Section 8.2: "2-4 slots/node").
EDGE_SLOT_CYCLE = (2, 3, 4)

_EARTH_RADIUS_KM = 6371.0
#: Effective signal speed in fibre, km per ms.
_FIBRE_KM_PER_MS = 200.0
#: Multiplier for indirect routing over the physical great-circle path.
_ROUTE_INFLATION = 1.5


def great_circle_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance between two (lat, lon) points in km."""
    lat1, lon1 = map(math.radians, a)
    lat2, lon2 = map(math.radians, b)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * _EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def dc_latency_ms(region_a: str, region_b: str) -> float:
    """One-way latency between two EC2 regions, distance-derived."""
    km = great_circle_km(EC2_REGIONS[region_a], EC2_REGIONS[region_b])
    return 5.0 + km / _FIBRE_KM_PER_MS * _ROUTE_INFLATION


def _clamp(value: float, low: float, high: float) -> float:
    """``float(np.clip(value, low, high))`` for one scalar, without the
    array round trip (a testbed build clamps a few hundred draws)."""
    return float(min(max(value, low), high))


def _dc_bandwidth_mbps(rng: np.random.Generator, latency_ms: float) -> float:
    """Sample a DC-DC capacity, anti-correlated with latency (Figure 7a)."""
    # Nearby regions see ~200+ Mbps, antipodal pairs ~25-60 Mbps.
    base = 260.0 * math.exp(-latency_ms / 160.0) + 25.0
    noisy = base * rng.uniform(0.75, 1.25)
    return _clamp(noisy, 25.0, 250.0)


def _edge_bandwidth_mbps(rng: np.random.Generator) -> float:
    """Sample an edge-link capacity from an Akamai-like distribution."""
    # Lognormal centred near 8 Mbps with a thin tail past 25 Mbps.
    value = rng.lognormal(mean=math.log(8.0), sigma=0.55)
    return _clamp(value, 1.5, 30.0)


def _edge_latency_ms(rng: np.random.Generator) -> float:
    """Sample an intra-region edge last-mile latency."""
    return float(rng.uniform(10.0, 60.0))


@dataclass(frozen=True)
class TestbedSpec:
    """Knobs for :func:`paper_testbed` (defaults follow Section 8.2)."""

    __test__ = False  # not a pytest class, despite the name

    dc_count: int = 8
    edge_count: int = 8
    dc_slots: int = DC_SLOTS
    proc_rate_eps: float = 40_000.0


def dc_site_name(region: str) -> str:
    return f"dc-{region}"


def edge_site_name(index: int) -> str:
    return f"edge-{index}"


def paper_testbed(
    rng: np.random.Generator, spec: TestbedSpec | None = None
) -> Topology:
    """Build the 16-node Section-8.2 testbed.

    Each edge node is homed at a data-center region (edge-i at region i) and
    its traffic to remote regions inherits that region's inter-DC latency on
    top of its own last-mile latency; its bandwidth to anywhere is limited by
    the public-Internet access link.
    """
    spec = spec or TestbedSpec()
    regions = list(EC2_REGIONS)[: spec.dc_count]

    sites: list[Site] = []
    for region in regions:
        sites.append(
            Site(
                dc_site_name(region),
                SiteKind.DATA_CENTER,
                spec.dc_slots,
                proc_rate_eps=spec.proc_rate_eps,
            )
        )
    edge_home: dict[str, str] = {}
    for i in range(spec.edge_count):
        name = edge_site_name(i)
        home = regions[i % len(regions)]
        edge_home[name] = home
        sites.append(
            Site(
                name,
                SiteKind.EDGE,
                EDGE_SLOT_CYCLE[i % len(EDGE_SLOT_CYCLE)],
                proc_rate_eps=spec.proc_rate_eps,
            )
        )

    topo = Topology(sites)

    # Data-center mesh: symmetric latency, direction-sampled bandwidth.
    for a in regions:
        for b in regions:
            if a == b:
                continue
            latency = dc_latency_ms(a, b)
            topo.set_link(
                dc_site_name(a),
                dc_site_name(b),
                _dc_bandwidth_mbps(rng, latency),
                latency,
            )

    # Edge links: the public Internet routes to different destinations over
    # different peering paths, so each destination gets its own capacity draw
    # around the edge node's nominal access rate.  Independent per-link
    # capacities are what make scale-out effective for network bottlenecks
    # (Figure 4: the load of a constrained link u->A is split across u->A and
    # u->B, which only helps if u->B has capacity of its own).
    edge_names = [edge_site_name(i) for i in range(spec.edge_count)]
    access_bw = {name: _edge_bandwidth_mbps(rng) for name in edge_names}
    access_lat = {name: _edge_latency_ms(rng) for name in edge_names}

    def _path_bandwidth(nominal: float) -> float:
        return _clamp(nominal * rng.uniform(0.6, 1.3), 1.0, 30.0)

    for name in edge_names:
        home = edge_home[name]
        for region in regions:
            wan_extra = 0.0 if region == home else dc_latency_ms(home, region)
            latency = access_lat[name] + wan_extra
            topo.set_link(
                name, dc_site_name(region), _path_bandwidth(access_bw[name]), latency
            )
            topo.set_link(
                dc_site_name(region), name, _path_bandwidth(access_bw[name]), latency
            )
        for other in edge_names:
            if other == name:
                continue
            other_home = edge_home[other]
            wan_extra = (
                0.0 if other_home == home else dc_latency_ms(home, other_home)
            )
            latency = access_lat[name] + access_lat[other] + wan_extra
            bandwidth = _path_bandwidth(min(access_bw[name], access_bw[other]))
            topo.set_link(name, other, bandwidth, latency)

    return topo


def network_distributions(topo: Topology) -> dict[str, np.ndarray]:
    """Bandwidth/latency samples split by link class, for Figure 7's CDFs.

    Edge-class links are those touching an edge site; as in the paper's
    figure, only intra-region edge connections are included for the edge
    class (edge connections "only consider data centers within the same
    region").
    """
    edge_bw, edge_lat, dc_bw, dc_lat = [], [], [], []
    for link in topo.links():
        src_edge = topo.site(link.src).is_edge
        dst_edge = topo.site(link.dst).is_edge
        if not src_edge and not dst_edge:
            dc_bw.append(link.bandwidth_mbps)
            dc_lat.append(link.latency_ms)
        elif link.latency_ms <= 150.0:
            # Intra-region edge connections only, per the figure caption.
            edge_bw.append(link.bandwidth_mbps)
            edge_lat.append(link.latency_ms)
    return {
        "edge_bandwidth_mbps": np.array(edge_bw),
        "edge_latency_ms": np.array(edge_lat),
        "dc_bandwidth_mbps": np.array(dc_bw),
        "dc_latency_ms": np.array(dc_lat),
    }
