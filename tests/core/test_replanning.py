"""Tests for repro.core.replanning - state-safe plan switching."""

import pytest

from repro.config import WaspConfig
from repro.core.replanning import Replanner
from repro.engine.logical import LogicalPlan
from repro.engine.operators import filter_, join, sink, source, union
from repro.engine.physical import PhysicalPlan
from repro.network.monitor import WanMonitor


def stateless_variant(name, relay_bytes):
    """Two sources -> union -> sink; variants differ in event size so the
    cost model can tell them apart."""
    ops = [
        source("a", "edge-x", event_bytes=200),
        source("b", "dc-2", event_bytes=200),
        filter_("fa", selectivity=0.5, event_bytes=relay_bytes),
        filter_("fb", selectivity=0.5, event_bytes=relay_bytes),
        union("u", event_bytes=relay_bytes),
        sink("out"),
    ]
    edges = [("a", "fa"), ("b", "fb"), ("fa", "u"), ("fb", "u"), ("u", "out")]
    return LogicalPlan.from_edges(name, ops, edges)


def stateful_variant(name, join_pair):
    remaining = ({"a", "b", "c"} - set(join_pair)).pop()
    first = f"join{{{'+'.join(sorted(join_pair))}}}"
    ops = [
        source("a", "edge-x"),
        source("b", "dc-1"),
        source("c", "dc-2"),
        join(first, selectivity=1.0, state_mb=5),  # non-windowed state
        join("join{a+b+c}", selectivity=1.0, state_mb=5),
        sink("out"),
    ]
    edges = [
        (join_pair[0], first),
        (join_pair[1], first),
        (first, "join{a+b+c}"),
        (remaining, "join{a+b+c}"),
        ("join{a+b+c}", "out"),
    ]
    return LogicalPlan.from_edges(name, ops, edges)


@pytest.fixture
def monitor(small_topology, rng):
    m = WanMonitor(small_topology, rng)
    m.refresh()
    return m


def deployed_physical(logical, assignments):
    plan = PhysicalPlan(logical)
    for stage_name, sites in assignments.items():
        for site in sites:
            plan.stage(stage_name).add_task(site)
    return plan


class TestSafety:
    def test_safe_candidates_exclude_current(self):
        variants = [stateless_variant("v0", 100), stateless_variant("v1", 50)]
        replanner = Replanner(variants)
        safe = replanner.safe_candidates(variants[0])
        assert [p.name for p in safe] == ["v1"]

    def test_incompatible_stateful_filtered(self):
        variants = [
            stateful_variant("v0", ("a", "b")),
            stateful_variant("v1", ("b", "c")),
        ]
        replanner = Replanner(variants)
        assert replanner.safe_candidates(variants[0]) == []

    def test_identical_stateful_subplan_allowed(self):
        v0 = stateful_variant("v0", ("a", "b"))
        v1 = stateful_variant("v1", ("a", "b"))
        replanner = Replanner([v0, v1])
        assert [p.name for p in replanner.safe_candidates(v0)] == ["v1"]


class TestProposal:
    def test_proposes_cheaper_variant(self, small_topology, monitor):
        heavy = stateless_variant("heavy", 150)
        light = stateless_variant("light", 30)
        replanner = Replanner([heavy, light])
        physical = deployed_physical(
            heavy,
            {"a": ["edge-x"], "b": ["dc-2"], "u": ["dc-1"], "out": ["dc-1"]},
        )
        proposal = replanner.propose(
            heavy, physical, monitor,
            {"edge-x": 3, "dc-1": 6, "dc-2": 7},
            {"a": 5000.0, "b": 5000.0},
        )
        assert proposal is not None
        assert proposal.new_plan_name == "light"

    def test_hysteresis_blocks_marginal_wins(self, small_topology, monitor):
        v0 = stateless_variant("v0", 100)
        v1 = stateless_variant("v1", 99)  # nearly identical cost
        replanner = Replanner([v0, v1])
        physical = deployed_physical(
            v0,
            {"a": ["edge-x"], "b": ["dc-2"], "u": ["dc-1"], "out": ["dc-1"]},
        )
        proposal = replanner.propose(
            v0, physical, monitor,
            {"edge-x": 3, "dc-1": 6, "dc-2": 7},
            {"a": 5000.0, "b": 5000.0},
        )
        assert proposal is None

    def test_forced_proposal_ignores_hysteresis(self, small_topology, monitor):
        v0 = stateless_variant("v0", 100)
        v1 = stateless_variant("v1", 99)
        replanner = Replanner([v0, v1])
        physical = deployed_physical(
            v0,
            {"a": ["edge-x"], "b": ["dc-2"], "u": ["dc-1"], "out": ["dc-1"]},
        )
        proposal = replanner.propose(
            v0, physical, monitor,
            {"edge-x": 3, "dc-1": 6, "dc-2": 7},
            {"a": 5000.0, "b": 5000.0},
            require_improvement=False,
        )
        assert proposal is not None

    def test_none_without_candidates(self, small_topology, monitor):
        v0 = stateful_variant("v0", ("a", "b"))
        v1 = stateful_variant("v1", ("b", "c"))
        replanner = Replanner([v0, v1])
        physical = deployed_physical(
            v0,
            {
                "a": ["edge-x"], "b": ["dc-1"], "c": ["dc-2"],
                "join{a+b}": ["dc-1"], "join{a+b+c}": ["dc-1"],
                "out": ["dc-1"],
            },
        )
        proposal = replanner.propose(
            v0, physical, monitor, small_topology.available_slots(),
            {"a": 100.0, "b": 100.0, "c": 100.0},
        )
        assert proposal is None

    def test_live_parallelism_carried_over(self, small_topology, monitor):
        heavy = stateless_variant("heavy", 150)
        light = stateless_variant("light", 30)
        replanner = Replanner([heavy, light])
        physical = deployed_physical(
            heavy,
            {
                "a": ["edge-x"], "b": ["dc-2"],
                "u": ["dc-1", "dc-2"],  # scaled out to 2
                "out": ["dc-1"],
            },
        )
        proposal = replanner.propose(
            heavy, physical, monitor,
            {"edge-x": 3, "dc-1": 6, "dc-2": 6},
            {"a": 5000.0, "b": 5000.0},
        )
        assert proposal is not None
        assert sum(proposal.estimate.assignments["u"].values()) == 2
