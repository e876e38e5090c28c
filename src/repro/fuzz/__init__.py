"""Seeded scenario fuzzing with runtime invariant checking.

The figure suite exercises a handful of hand-written trajectories; this
package sweeps *randomized* ones.  :mod:`.generate` draws topologies,
queries, workload/bandwidth schedules and chaos fault plans from
:class:`~repro.sim.rng.RngRegistry` streams, so every campaign is
replayable from a single seed.  :mod:`.invariants` hooks an
:class:`~repro.experiments.harness.ExperimentRun` and asserts the paper's
correctness properties on every tick and every committed adaptation.
:mod:`.campaign` shards seeds across worker processes, merges a
:class:`CampaignReport`, shrinks failing scenarios and writes replayable
JSON repro artifacts (``python -m repro fuzz --replay FILE``).
"""

from .campaign import (
    CampaignReport,
    ScenarioResult,
    load_artifact,
    run_campaign,
    run_scenario,
    shrink_scenario,
    write_artifact,
)
from .generate import ScenarioSpec, build_run, generate_scenario
from .invariants import InvariantChecker, Violation

__all__ = [
    "CampaignReport",
    "InvariantChecker",
    "ScenarioResult",
    "ScenarioSpec",
    "Violation",
    "build_run",
    "generate_scenario",
    "load_artifact",
    "run_campaign",
    "run_scenario",
    "shrink_scenario",
    "write_artifact",
]
