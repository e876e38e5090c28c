"""Tests for run_variants - isolated, comparable multi-variant sweeps."""

import pytest

from repro.baselines.variants import no_adapt, wasp
from repro.experiments.harness import DynamicsSpec
from repro.experiments.scenarios import Scenario, run_variants
from repro.sim.schedule import Schedule


def make_dynamics(rngs):
    return DynamicsSpec(
        workload_schedule=Schedule([(0.0, 1.0), (30.0, 2.0)])
    )


def scenario(duration_s, variants=(no_adapt(), wasp())):
    return Scenario(
        "ysb-step", duration_s, variants, "ysb-advertising", make_dynamics
    )


class TestIsolation:
    def test_each_variant_gets_its_own_world(self):
        """Adaptations in one run must not leak into another: every variant
        re-creates the topology from the same seed."""
        results = run_variants(scenario(90), seed=7)
        assert results["No Adapt"].topology is not results["WASP"].topology

    def test_identical_worlds_from_one_seed(self):
        results = run_variants(scenario(30), seed=7)
        links_a = results["No Adapt"].topology.links()
        links_b = results["WASP"].topology.links()
        # Base capacities identical; only live factors may differ through
        # adaptation side effects (none here).
        assert [
            (l.src, l.dst, l.latency_ms) for l in links_a
        ] == [(l.src, l.dst, l.latency_ms) for l in links_b]

    def test_results_keyed_by_variant_name(self):
        results = run_variants(scenario(20, (no_adapt(),)), seed=7)
        assert set(results) == {"No Adapt"}

    def test_recorders_cover_full_duration(self):
        results = run_variants(scenario(25, (no_adapt(),)), seed=7)
        assert len(results["No Adapt"].recorder.samples) == 25

    def test_same_offered_load_across_variants(self):
        """Comparability: every variant faces the exact same workload."""
        results = run_variants(scenario(60), seed=7)
        offered = {
            name: run.recorder.total_offered()
            for name, run in results.items()
        }
        values = list(offered.values())
        assert values[0] == pytest.approx(values[1])
