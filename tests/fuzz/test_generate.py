"""Tests for the seeded scenario generator."""

import dataclasses

import pytest

from repro.baselines.variants import ALL_NAMED
from repro.chaos.injector import ChaosInjector
from repro.errors import ConfigurationError
from repro.experiments.scenarios import QUERIES
from repro.fuzz.generate import (
    FAULT_KINDS,
    ScenarioSpec,
    build_run,
    build_topology,
    generate_scenario,
)


class TestDeterminism:
    def test_same_seed_same_spec(self):
        assert (
            generate_scenario(17).to_json() == generate_scenario(17).to_json()
        )

    def test_different_seeds_differ(self):
        seen = {generate_scenario(seed).to_json() for seed in range(8)}
        assert len(seen) == 8

    def test_json_round_trip(self):
        spec = generate_scenario(3)
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_unknown_config_override_rejected_at_load(self):
        data = generate_scenario(3).to_dict()
        data["config_overrides"]["bogus"] = 1
        with pytest.raises(ConfigurationError, match="bogus"):
            ScenarioSpec.from_dict(data)


class TestSpecValidity:
    @pytest.mark.parametrize("seed", range(6))
    def test_generated_specs_are_well_formed(self, seed):
        spec = generate_scenario(seed)
        kinds = {site.kind for site in spec.sites}
        assert {"edge", "dc"} <= kinds
        names = spec.site_names
        assert len(set(names)) == len(names)
        # Full directed mesh so any placement has a defined link.
        pairs = {(link.src, link.dst) for link in spec.links}
        expected = {(a, b) for a in names for b in names if a != b}
        assert pairs == expected
        assert all(link.bandwidth_mbps > 0 for link in spec.links)
        assert spec.query in QUERIES
        assert spec.variant in ALL_NAMED
        for fault in spec.faults:
            assert fault.kind in FAULT_KINDS
            assert 10.0 <= fault.at_s <= spec.duration_s - 30.0
        assert list(spec.faults) == sorted(
            spec.faults, key=lambda f: (f.at_s, f.kind)
        )

    def test_fault_sites_exist(self):
        for seed in range(6):
            spec = generate_scenario(seed)
            names = set(spec.site_names)
            for fault in spec.faults:
                for key in ("site", "src", "dst"):
                    value = fault.params.get(key)
                    if value is not None:
                        assert value in names


class TestMaterialization:
    def test_build_topology_matches_spec(self):
        spec = generate_scenario(2)
        topology = build_topology(spec)
        assert sorted(s.name for s in topology) == sorted(spec.site_names)
        for link in spec.links[:10]:
            assert topology.bandwidth_mbps(link.src, link.dst) == (
                pytest.approx(link.bandwidth_mbps)
            )

    def test_build_run_wires_chaos_iff_faults(self):
        with_faults = next(
            generate_scenario(s) for s in range(20)
            if generate_scenario(s).faults
        )
        run, dynamics = build_run(with_faults)
        assert [t for t, _ in dynamics.faults] == [
            f.at_s for f in with_faults.faults
        ]
        assert run._chaos is None
        run.set_dynamics(dynamics)
        assert isinstance(run._chaos, ChaosInjector)
        without = dataclasses.replace(with_faults, faults=())
        run2, dynamics2 = build_run(without)
        run2.set_dynamics(dynamics2)
        assert run2._chaos is None

    def test_build_run_smoke_steps(self):
        spec = generate_scenario(4)
        run, dynamics = build_run(spec)
        run.run(10.0, dynamics)
        assert run.runtime.now_s == pytest.approx(10.0)
