"""Tests for repro.network.topology."""

import pytest

from repro.errors import TopologyError, UnknownSiteError
from repro.network.site import Site, SiteKind
from repro.network.topology import (
    LOCAL_BANDWIDTH_MBPS,
    LOCAL_LATENCY_MS,
    Link,
    Topology,
)

from tests.network.links import fully_connected
from tests.slots import total_used_slots


@pytest.fixture
def topo():
    t = Topology(
        [
            Site("a", SiteKind.EDGE, 2),
            Site("b", SiteKind.DATA_CENTER, 8),
        ]
    )
    t.set_link("a", "b", 10.0, 50.0)
    t.set_link("b", "a", 20.0, 50.0)
    return t


class TestSites:
    def test_lookup(self, topo):
        assert topo.site("a").name == "a"

    def test_unknown_site(self, topo):
        with pytest.raises(UnknownSiteError):
            topo.site("zzz")

    def test_contains(self, topo):
        assert "a" in topo and "zzz" not in topo

    def test_duplicate_names_rejected(self):
        with pytest.raises(TopologyError):
            Topology([Site("a", SiteKind.EDGE, 1), Site("a", SiteKind.EDGE, 1)])

    def test_sites_of_kind(self, topo):
        assert [s.name for s in topo.sites_of_kind(SiteKind.EDGE)] == ["a"]

    def test_available_slots_map(self, topo):
        topo.site("b").allocate(3)
        assert topo.available_slots() == {"a": 2, "b": 5}

    def test_available_slots_zero_for_failed(self, topo):
        topo.site("a").fail()
        assert topo.available_slots()["a"] == 0

    def test_total_used_slots(self, topo):
        topo.site("a").allocate(1)
        topo.site("b").allocate(2)
        assert total_used_slots(topo) == 3


class TestLinks:
    def test_directional_bandwidth(self, topo):
        assert topo.bandwidth_mbps("a", "b") == 10.0
        assert topo.bandwidth_mbps("b", "a") == 20.0

    def test_latency(self, topo):
        assert topo.latency_ms("a", "b") == 50.0

    def test_local_transfers_effectively_free(self, topo):
        assert topo.bandwidth_mbps("a", "a") == LOCAL_BANDWIDTH_MBPS
        assert topo.latency_ms("a", "a") == LOCAL_LATENCY_MS

    def test_undefined_link_rejected(self):
        topo = Topology([Site("a", SiteKind.EDGE, 1), Site("b", SiteKind.EDGE, 1)])
        with pytest.raises(TopologyError):
            topo.bandwidth_mbps("a", "b")

    def test_self_link_rejected(self, topo):
        with pytest.raises(TopologyError):
            topo.set_link("a", "a", 1.0, 1.0)

    def test_zero_bandwidth_rejected(self, topo):
        with pytest.raises(TopologyError):
            topo.set_link("a", "b", 0.0, 1.0)

    def test_negative_latency_rejected(self, topo):
        with pytest.raises(TopologyError):
            topo.set_link("a", "b", 1.0, -1.0)

    def test_links_lists_current_values(self, topo):
        links = {(l.src, l.dst): l.bandwidth_mbps for l in topo.links()}
        assert links[("a", "b")] == 10.0

    def test_fully_connected(self, topo):
        assert fully_connected(topo)

    def test_not_fully_connected(self):
        topo = Topology([Site("a", SiteKind.EDGE, 1), Site("b", SiteKind.EDGE, 1)])
        topo.set_link("a", "b", 1.0, 1.0)
        assert not fully_connected(topo)


class TestDynamics:
    def test_per_link_factor(self, topo):
        topo.set_bandwidth_factor("a", "b", 0.5)
        assert topo.bandwidth_mbps("a", "b") == 5.0
        assert topo.bandwidth_mbps("b", "a") == 20.0  # untouched

    def test_global_factor(self, topo):
        topo.set_global_bandwidth_factor(0.5)
        assert topo.bandwidth_mbps("a", "b") == 5.0
        assert topo.bandwidth_mbps("b", "a") == 10.0

    def test_restore_is_exact(self, topo):
        """Section 8.4 halves at t=900 and restores at t=1200."""
        topo.set_global_bandwidth_factor(0.5)
        topo.set_global_bandwidth_factor(1.0)
        assert topo.bandwidth_mbps("a", "b") == 10.0

    def test_factor_on_undefined_link_rejected(self, topo):
        with pytest.raises(TopologyError):
            topo.set_bandwidth_factor("b", "b", 0.5)

    def test_negative_factor_rejected(self, topo):
        with pytest.raises(TopologyError):
            topo.set_global_bandwidth_factor(-1.0)

    def test_redefining_a_link_bumps_the_versions(self, topo):
        """Cached link tables key on these counters, so a redefinition
        must invalidate them just like a factor write does."""
        factors, links = topo._factors_version, topo._links_version
        topo.set_link("a", "b", 4.0, 80.0)
        assert topo._factors_version > factors
        assert topo._links_version > links
        assert topo.bandwidth_mbps("a", "b") == 4.0
        assert topo.latency_ms("a", "b") == 80.0

    def test_factor_query(self, topo):
        ab, ba = topo.bandwidth_mbps("a", "b"), topo.bandwidth_mbps("b", "a")
        topo.set_bandwidth_factor("a", "b", 0.25)
        assert topo.bandwidth_mbps("a", "b") == ab * 0.25
        assert topo.bandwidth_mbps("b", "a") == ba


class TestLinkTables:
    @pytest.fixture
    def three(self):
        t = Topology(
            [
                Site("c", SiteKind.EDGE, 1),
                Site("a", SiteKind.EDGE, 1),
                Site("b", SiteKind.DATA_CENTER, 4),
            ]
        )
        t.set_link("c", "a", 5.0, 10.0)
        t.set_link("a", "b", 10.0, 20.0)
        return t

    def test_links_pick_up_a_link_added_mid_run(self, three):
        """The sorted key list is cached; adding a link must invalidate it."""
        keys = [(l.src, l.dst) for l in three.links()]
        assert keys == [("a", "b"), ("c", "a")]
        three.set_link("b", "c", 7.0, 30.0)
        assert [(l.src, l.dst) for l in three.links()] == [
            ("a", "b"),
            ("b", "c"),
            ("c", "a"),
        ]
        assert three.links()[1] == Link("b", "c", 7.0, 30.0)
        assert list(three.link_bandwidths()) == [
            ("a", "b"),
            ("b", "c"),
            ("c", "a"),
        ]

    def test_link_bandwidths_match_per_link_reads(self, three):
        three.set_global_bandwidth_factor(0.3)
        three.set_bandwidth_factor("c", "a", 0.7)
        expected = {
            key: three.bandwidth_mbps(*key)
            for key in sorted(three._base_bandwidth)
        }
        assert three.link_bandwidths() == expected
        assert [(l.src, l.dst, l.bandwidth_mbps) for l in three.links()] == [
            (*key, bw) for key, bw in expected.items()
        ]
