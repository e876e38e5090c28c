"""Slot-conservation witness shared by the topology, scheduler, chaos and
multi-query tests: production code reads per-site and per-query slot
counts, never a topology-wide total."""

from __future__ import annotations

from repro.network.topology import Topology


def total_used_slots(topology: Topology) -> int:
    """Used slots summed over every site of ``topology``."""
    return sum(site.used_slots for site in topology)
