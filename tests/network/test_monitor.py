"""Tests for repro.network.monitor - the WAN Monitor."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.network.monitor import WanMonitor

from tests.network.links import bandwidth_matrix


class TestMeasurement:
    def test_exact_without_noise(self, small_topology, rng):
        monitor = WanMonitor(small_topology, rng)
        monitor.refresh()
        assert monitor.bandwidth_mbps("edge-x", "dc-1") == 10.0

    def test_latency_measured(self, small_topology, rng):
        monitor = WanMonitor(small_topology, rng)
        monitor.refresh()
        assert monitor.latency_ms("edge-x", "dc-1") == 50.0

    def test_noise_bounded(self, small_topology, rng):
        monitor = WanMonitor(small_topology, rng, relative_error=0.2)
        monitor.refresh()
        measured = monitor.bandwidth_mbps("edge-x", "dc-1")
        assert 8.0 <= measured <= 12.0

    def test_invalid_error_rejected(self, small_topology, rng):
        with pytest.raises(ConfigurationError):
            WanMonitor(small_topology, rng, relative_error=1.0)

    def test_local_transfer_delegates_to_topology(self, small_topology, rng):
        monitor = WanMonitor(small_topology, rng)
        assert monitor.bandwidth_mbps("dc-1", "dc-1") == (
            small_topology.bandwidth_mbps("dc-1", "dc-1")
        )


class TestStaleness:
    def test_measurement_is_stale_until_refresh(self, small_topology, rng):
        """The controller plans against the last measurement, not ground
        truth - mis-estimation the alpha headroom must absorb."""
        monitor = WanMonitor(small_topology, rng)
        monitor.refresh()
        small_topology.set_bandwidth_factor("edge-x", "dc-1", 0.5)
        assert monitor.bandwidth_mbps("edge-x", "dc-1") == 10.0
        monitor.refresh()
        assert monitor.bandwidth_mbps("edge-x", "dc-1") == 5.0

    def test_unmeasured_link_falls_back_to_truth(self, small_topology, rng):
        monitor = WanMonitor(small_topology, rng)
        assert monitor.bandwidth_mbps("edge-x", "dc-1") == 10.0

    def test_bandwidth_matrix_covers_all_links(self, small_topology, rng):
        monitor = WanMonitor(small_topology, rng)
        monitor.refresh()
        assert len(bandwidth_matrix(monitor)) == 6
