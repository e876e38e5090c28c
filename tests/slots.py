"""Slot witnesses shared by the tests: production code reads per-site and
per-query slot counts, never a topology-wide total, and checks deployment
stage by stage."""

from __future__ import annotations

from repro.engine.physical import PhysicalPlan
from repro.network.topology import Topology


def total_used_slots(topology: Topology) -> int:
    """Used slots summed over every site of ``topology``."""
    return sum(site.used_slots for site in topology)


def fully_deployed(plan: PhysicalPlan) -> bool:
    """Whether every stage of ``plan`` holds at least one task."""
    return all(stage.parallelism > 0 for stage in plan.stages.values())
