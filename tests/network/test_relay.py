"""Tests for repro.network.relay - bulk-transfer relay routing."""

import pytest

from repro.errors import TopologyError
from repro.network.relay import (
    RELAY_EFFICIENCY,
    RelayPath,
    best_relay_path,
    relayed_bandwidth_lookup,
)


def table_lookup(table, default=1.0):
    def lookup(src, dst):
        return table.get((src, dst), default)

    return lookup


class TestBestRelayPath:
    def test_direct_when_fastest(self):
        bw = table_lookup({("a", "b"): 100.0, ("a", "r"): 10.0,
                           ("r", "b"): 10.0})
        path = best_relay_path("a", "b", ["r"], bw)
        assert path.is_direct
        assert path.bandwidth_mbps == 100.0

    def test_relay_beats_weak_direct(self):
        bw = table_lookup({("a", "b"): 2.0, ("a", "r"): 100.0,
                           ("r", "b"): 80.0})
        path = best_relay_path("a", "b", ["r"], bw)
        assert path.via == "r"
        assert path.bandwidth_mbps == pytest.approx(80.0 * RELAY_EFFICIENCY)

    def test_relay_bottleneck_is_min_hop(self):
        bw = table_lookup({("a", "b"): 1.0, ("a", "r"): 100.0,
                           ("r", "b"): 5.0})
        path = best_relay_path("a", "b", ["r"], bw)
        assert path.bandwidth_mbps == pytest.approx(5.0 * RELAY_EFFICIENCY)

    def test_best_among_several_relays(self):
        bw = table_lookup({
            ("a", "b"): 1.0,
            ("a", "r1"): 10.0, ("r1", "b"): 10.0,
            ("a", "r2"): 50.0, ("r2", "b"): 60.0,
        })
        path = best_relay_path("a", "b", ["r1", "r2"], bw)
        assert path.via == "r2"

    def test_endpoints_excluded_as_relays(self):
        bw = table_lookup({("a", "b"): 3.0})
        path = best_relay_path("a", "b", ["a", "b"], bw)
        assert path.is_direct

    def test_same_site_rejected(self):
        with pytest.raises(TopologyError):
            best_relay_path("a", "a", [], table_lookup({}))

    def test_hops(self):
        assert RelayPath("a", "b", None, 1.0).hops() == [("a", "b")]
        assert RelayPath("a", "b", "r", 1.0).hops() == [
            ("a", "r"), ("r", "b"),
        ]

    def test_efficiency_discount_can_keep_direct(self):
        # Relay min-hop 10 * 0.9 = 9 < direct 9.5: direct wins.
        bw = table_lookup({("a", "b"): 9.5, ("a", "r"): 10.0,
                           ("r", "b"): 10.0})
        assert best_relay_path("a", "b", ["r"], bw).is_direct


class TestRelayedLookup:
    def test_transparent_improvement(self):
        bw = table_lookup({("a", "b"): 2.0, ("a", "r"): 100.0,
                           ("r", "b"): 100.0})
        lookup = relayed_bandwidth_lookup(["a", "b", "r"], bw)
        assert lookup("a", "b") == pytest.approx(100.0 * RELAY_EFFICIENCY)

    def test_local_passthrough(self):
        bw = table_lookup({("a", "a"): 12345.0})
        lookup = relayed_bandwidth_lookup(["a"], bw)
        assert lookup("a", "a") == 12345.0


class TestControllerIntegration:
    def test_relay_shortens_migration_transition(self, small_topology):
        """With relays enabled, moving state over the weak edge-x -> dc-2
        link (5 Mbps) routes via dc-1 (10 then 100 Mbps)."""
        import sys

        sys.path.insert(0, "tests")
        from core.test_controller import build_manager
        from repro.config import WaspConfig
        from repro.core.actions import ReassignAction

        def transition_with(relays: bool) -> float:
            # Fresh topology per run (slots are consumed by deployment).
            from repro.network.site import Site, SiteKind
            from repro.network.topology import Topology

            topo = Topology(
                [
                    Site("edge-x", SiteKind.EDGE, 4),
                    Site("dc-1", SiteKind.DATA_CENTER, 8),
                    Site("dc-2", SiteKind.DATA_CENTER, 8),
                ]
            )
            topo.set_link("edge-x", "dc-1", 10.0, 50.0)
            topo.set_link("dc-1", "edge-x", 10.0, 50.0)
            topo.set_link("dc-1", "dc-2", 100.0, 20.0)
            topo.set_link("dc-2", "dc-1", 100.0, 20.0)
            topo.set_link("edge-x", "dc-2", 5.0, 70.0)
            topo.set_link("dc-2", "edge-x", 5.0, 70.0)
            config = WaspConfig.paper_defaults().with_overrides(
                migration_relays=relays
            )
            manager = build_manager(topo, state_mb=100.0, config=config)
            # Move the stage (and its 100 MB) from dc-1 to edge-x: direct
            # dc-1 -> edge-x is 10 Mbps; no relay helps there.  Instead move
            # to dc-2... direct dc-1 -> dc-2 is already fast.  The
            # interesting pair: force the state to edge-x first.
            manager.execute(
                ReassignAction("agg", "setup", {"edge-x": 1}), now_s=0.0
            )
            manager.runtime._suspended_until.clear()
            record = manager.execute(
                ReassignAction("agg", "test", {"dc-2": 1}), now_s=1.0
            )
            return record.transition_s

        direct = transition_with(False)
        relayed = transition_with(True)
        # Direct edge-x -> dc-2 is 5 Mbps (160 s for 100 MB); via dc-1 the
        # bottleneck hop is 10 Mbps * 0.9 (~89 s).
        assert relayed < direct * 0.7
