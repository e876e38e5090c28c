"""Tests for repro.network.traces - the Section 8.2 testbed."""

import numpy as np
import pytest

from repro.network import traces
from repro.network.site import SiteKind
from repro.network.traces import (
    EC2_REGIONS,
    TestbedSpec,
    dc_latency_ms,
    great_circle_km,
    network_distributions,
    paper_testbed,
)
from tests.network.links import fully_connected


@pytest.fixture
def testbed():
    return paper_testbed(np.random.default_rng(0))


class TestGeometry:
    def test_great_circle_zero_for_same_point(self):
        point = EC2_REGIONS["oregon"]
        assert great_circle_km(point, point) == pytest.approx(0.0)

    def test_great_circle_symmetric(self):
        a, b = EC2_REGIONS["oregon"], EC2_REGIONS["seoul"]
        assert great_circle_km(a, b) == pytest.approx(great_circle_km(b, a))

    def test_known_distance_oregon_ohio(self):
        km = great_circle_km(EC2_REGIONS["oregon"], EC2_REGIONS["ohio"])
        assert 3000 < km < 4000  # ~3,400 km

    def test_latency_increases_with_distance(self):
        near = dc_latency_ms("ireland", "frankfurt")
        far = dc_latency_ms("oregon", "singapore")
        assert near < far

    def test_latency_in_plausible_band(self):
        """Figure 7b: DC latencies span roughly 20-300 ms."""
        values = [
            dc_latency_ms(a, b)
            for a in EC2_REGIONS
            for b in EC2_REGIONS
            if a != b
        ]
        assert min(values) > 5.0
        assert max(values) < 350.0


class TestTestbedStructure:
    def test_sixteen_nodes(self, testbed):
        assert len(testbed.site_names) == 16

    def test_eight_dcs_eight_edges(self, testbed):
        assert len(testbed.sites_of_kind(SiteKind.DATA_CENTER)) == 8
        assert len(testbed.sites_of_kind(SiteKind.EDGE)) == 8

    def test_dc_slots(self, testbed):
        """Section 8.2: data-center nodes provide 8 slots."""
        for site in testbed.sites_of_kind(SiteKind.DATA_CENTER):
            assert site.total_slots == 8

    def test_edge_slots_two_to_four(self, testbed):
        for site in testbed.sites_of_kind(SiteKind.EDGE):
            assert 2 <= site.total_slots <= 4

    def test_fully_connected(self, testbed):
        assert fully_connected(testbed)

    def test_custom_spec(self):
        spec = TestbedSpec(dc_count=3, edge_count=2, dc_slots=4)
        topo = paper_testbed(np.random.default_rng(0), spec)
        assert len(topo.sites_of_kind(SiteKind.DATA_CENTER)) == 3
        assert len(topo.sites_of_kind(SiteKind.EDGE)) == 2

    def test_reproducible(self):
        a = paper_testbed(np.random.default_rng(5))
        b = paper_testbed(np.random.default_rng(5))
        for link_a, link_b in zip(a.links(), b.links()):
            assert link_a == link_b


class TestBandwidthRegimes:
    def test_dc_links_in_figure7_band(self, testbed):
        """Figure 7a: DC bandwidth spans roughly 25-250 Mbps."""
        for link in testbed.links():
            src_edge = testbed.site(link.src).is_edge
            dst_edge = testbed.site(link.dst).is_edge
            if not src_edge and not dst_edge:
                assert 25.0 <= link.bandwidth_mbps <= 250.0

    def test_edge_links_public_internet_class(self, testbed):
        """Akamai: edge connectivity averages < 10 Mbps, thin tail above."""
        edge_bws = [
            link.bandwidth_mbps
            for link in testbed.links()
            if testbed.site(link.src).is_edge or testbed.site(link.dst).is_edge
        ]
        assert np.median(edge_bws) < 15.0
        assert max(edge_bws) <= 30.0
        assert min(edge_bws) >= 1.0

    def test_edge_links_slower_than_dc_links_on_average(self, testbed):
        edge, dc = [], []
        for link in testbed.links():
            touches_edge = (
                testbed.site(link.src).is_edge or testbed.site(link.dst).is_edge
            )
            (edge if touches_edge else dc).append(link.bandwidth_mbps)
        assert np.mean(edge) < np.mean(dc)

    def test_per_destination_draws_are_independent(self, testbed):
        """Scale-out relies on different links from one edge having
        different capacities (Figure 4)."""
        edge = testbed.sites_of_kind(SiteKind.EDGE)[0].name
        bws = {
            dst: testbed.bandwidth_mbps(edge, dst)
            for dst in testbed.site_names
            if dst != edge
        }
        assert len(set(bws.values())) > 3


class TestDistributions:
    def test_distribution_keys(self, testbed):
        dists = network_distributions(testbed)
        assert set(dists) == {
            "edge_bandwidth_mbps",
            "edge_latency_ms",
            "dc_bandwidth_mbps",
            "dc_latency_ms",
        }

    def test_dc_pair_count(self, testbed):
        dists = network_distributions(testbed)
        assert len(dists["dc_bandwidth_mbps"]) == 8 * 7

    def test_edge_class_only_intra_region(self, testbed):
        dists = network_distributions(testbed)
        assert (dists["edge_latency_ms"] <= 150.0).all()


def _np_clip_clamp(value, low, high):
    """The original clamp, kept as the oracle for ``traces._clamp``."""
    return float(np.clip(value, low, high))


def _link_table(topo):
    return [
        (link.src, link.dst, link.bandwidth_mbps, link.latency_ms)
        for link in topo.links()
    ]


class TestClampOracle:
    def test_testbed_links_match_np_clip_over_seeds(self, monkeypatch):
        built = [
            _link_table(paper_testbed(np.random.default_rng(seed)))
            for seed in range(200)
        ]
        monkeypatch.setattr(traces, "_clamp", _np_clip_clamp)
        for seed, links in enumerate(built):
            oracle = _link_table(paper_testbed(np.random.default_rng(seed)))
            assert links == oracle, f"seed {seed}"

    @pytest.mark.parametrize(
        "value", [-1.0, 0.0, 1.0, 1.5, 17.25, 30.0, 31.0, float("inf")]
    )
    def test_clamp_matches_np_clip(self, value):
        assert traces._clamp(value, 1.5, 30.0) == _np_clip_clamp(
            value, 1.5, 30.0
        )

    def test_clamp_keeps_nan(self):
        assert np.isnan(traces._clamp(float("nan"), 1.5, 30.0))
