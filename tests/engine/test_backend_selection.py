"""``engine_backend="auto"``: one rule, applied once in ``create_runtime``.

The rule counts the initial plan's potential WAN flows and picks the dense
backend at or above :data:`repro.engine.dense.AUTO_DENSE_MIN_FLOWS`.  The
paper's evaluation and the fuzz campaigns compile to a handful of flows and
must stay on the reference engine; the many-site shuffle worlds of
``benchmarks/perf/scale.py`` cross over to dense.
"""

from __future__ import annotations

import pytest

from benchmarks.perf.scale import build_world
from repro.config import ENGINE_BACKENDS, WaspConfig
from repro.engine import dense
from repro.engine import operators as ops
from repro.engine.dense import (
    AUTO_DENSE_MIN_FLOWS,
    DenseEngineRuntime,
    create_runtime,
    potential_wan_flows,
    resolve_backend,
)
from repro.engine.logical import LogicalPlan
from repro.engine.physical import PhysicalPlan
from repro.engine.runtime import EngineRuntime
from repro.errors import ConfigurationError
from repro.experiments.harness import ExperimentRun
from repro.experiments.scenarios import (
    FIG13_STATE_MB,
    build_migration_run,
    fig8_scenario,
    fig10_scenario,
    fig11_scenario,
    migration_variants,
)
from repro.fuzz.generate import build_run, generate_scenario
from repro.sim.rng import RngRegistry


def _backend_of(runtime: EngineRuntime) -> str:
    return "dense" if isinstance(runtime, DenseEngineRuntime) else "reference"


class TestConfiguration:
    def test_auto_is_the_default(self) -> None:
        assert WaspConfig().engine_backend == "auto"
        assert WaspConfig.paper_defaults().engine_backend == "auto"

    @pytest.mark.parametrize("name", ENGINE_BACKENDS)
    def test_config_accepts_every_backend(self, name: str) -> None:
        assert WaspConfig(engine_backend=name).engine_backend == name

    def test_config_error_lists_every_backend(self) -> None:
        with pytest.raises(ConfigurationError) as err:
            WaspConfig(engine_backend="fast")
        for name in ENGINE_BACKENDS:
            assert repr(name) in str(err.value)

    def test_create_runtime_error_lists_every_backend(self) -> None:
        topology, plan, workload = build_world(4, 1)
        with pytest.raises(ConfigurationError) as err:
            create_runtime(topology, plan, workload, backend="fast")
        for name in ENGINE_BACKENDS:
            assert repr(name) in str(err.value)

    @pytest.mark.parametrize("name", ["reference", "dense"])
    def test_explicit_backends_are_kept(self, name: str) -> None:
        for sites in (4, 64):
            topology, plan, workload = build_world(sites, 1)
            assert resolve_backend(plan, name) == name
            config = WaspConfig(engine_backend=name)
            runtime = create_runtime(topology, plan, workload, config)
            assert _backend_of(runtime) == name

    def test_backend_argument_overrides_config(self) -> None:
        topology, plan, workload = build_world(4, 1)
        config = WaspConfig(engine_backend="reference")
        runtime = create_runtime(
            topology, plan, workload, config, backend="auto"
        )
        assert _backend_of(runtime) == "reference"
        runtime = create_runtime(
            topology, plan, workload, config, backend="dense"
        )
        assert _backend_of(runtime) == "dense"


class TestPotentialFlows:
    def test_counts_cross_site_pairs_of_every_edge(self) -> None:
        a = ops.source("a", "s1")
        b = ops.map_("b")
        c = ops.sink("c")
        plan = PhysicalPlan(
            LogicalPlan.from_edges("p", [a, b, c], [("a", "b"), ("b", "c")]),
            chaining=False,
        )
        plan.stage("a").add_task("s1")
        for site in ("s1", "s2", "s3"):
            plan.stage("b").add_task(site)
        plan.stage("b").add_task("s3")  # a second task adds no site
        plan.stage("c").add_task("s2")
        # a -> b: 1 * 3 - 1 shared site; b -> c: 3 * 1 - 1 shared site.
        assert potential_wan_flows(plan) == 2 + 2

    @pytest.mark.parametrize(
        "sites, flows", [(4, 15), (8, 63), (12, 143), (16, 255), (64, 4095)]
    )
    def test_shuffle_worlds(self, sites: int, flows: int) -> None:
        _topology, plan, _workload = build_world(sites, 1)
        assert potential_wan_flows(plan) == flows

    @pytest.mark.parametrize(
        "sites, expected",
        [(4, "reference"), (8, "reference"), (16, "dense"), (64, "dense")],
    )
    def test_shuffle_worlds_cross_over(self, sites: int, expected: str) -> None:
        topology, plan, workload = build_world(sites, 1)
        assert resolve_backend(plan, "auto") == expected
        runtime = create_runtime(topology, plan, workload)
        assert _backend_of(runtime) == expected

    def test_threshold_is_inclusive(self, monkeypatch) -> None:
        _topology, plan, _workload = build_world(8, 1)
        monkeypatch.setattr(dense, "AUTO_DENSE_MIN_FLOWS", 63)
        assert resolve_backend(plan, "auto") == "dense"
        monkeypatch.setattr(dense, "AUTO_DENSE_MIN_FLOWS", 64)
        assert resolve_backend(plan, "auto") == "reference"


def _figure_runs(seed: int):
    scenarios = [fig8_scenario(q) for q in (
        "ysb-advertising", "topk-topics", "events-of-interest"
    )] + [fig10_scenario(), fig11_scenario()]
    for scenario in scenarios:
        for variant in scenario.variants:
            rngs = RngRegistry(seed)
            topology = scenario.make_topology(rngs)
            query = scenario.make_query(topology, rngs)
            yield ExperimentRun(topology, query, variant, rngs=rngs)
    for variant in migration_variants():
        yield build_migration_run(variant, FIG13_STATE_MB, seed=20)


@pytest.mark.parametrize("seed", [42, 1000])
def test_paper_figure_runs_stay_on_reference(seed: int) -> None:
    """Figures 8, 10, 11 and 13 at the default config: all reference."""
    runs = list(_figure_runs(seed))
    assert len(runs) == 20
    for run in runs:
        assert run.config.engine_backend == "auto"
        assert _backend_of(run.runtime) == "reference"
        assert potential_wan_flows(run.runtime.plan) < AUTO_DENSE_MIN_FLOWS


def test_fuzz_seeds_stay_on_reference() -> None:
    for seed in range(200):
        run, _dynamics = build_run(generate_scenario(seed))
        assert _backend_of(run.runtime) == "reference", seed
