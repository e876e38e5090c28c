"""Plan-cache coherence: caching must be invisible to the simulation.

The engine caches placement-derived execution records (sorted site rows,
fan-out fractions, chained selectivities) keyed by the plan's monotonic
mutation version.  These tests drive a fixed-seed, chaos-enabled
experiment - site crash, bandwidth collapse and straggler landing around
adaptation rounds, so plans mutate mid-run - and require the recorder
output to be bit-identical whether the cache is reused or rebuilt from the
plan on every single tick.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines.variants import wasp
from repro.chaos.faults import BandwidthCollapse, SiteCrash, Straggler
from repro.chaos.injector import ChaosInjector
from repro.engine.runtime import EngineRuntime
from repro.experiments.harness import ExperimentRun
from repro.experiments.scenarios import bottleneck_dynamics, fig8_scenario
from repro.sim.recorder import RunRecorder
from repro.sim.rng import RngRegistry

SEED = 20201207
DURATION_S = 450.0


def _recorder_digest(recorder: RunRecorder) -> str:
    """SHA-256 over every recorded value at full float precision.

    ``repr`` round-trips IEEE-754 doubles exactly, so two digests are equal
    iff the runs are bit-identical.
    """
    h = hashlib.sha256()
    for s in recorder.samples:
        h.update(
            (
                f"{s.t_s!r}|{s.delay_s!r}|{s.processed!r}|{s.offered!r}"
                f"|{s.dropped!r}|{s.parallelism}|{s.extra_slots}\n"
            ).encode()
        )
    for a in recorder.adaptations:
        h.update(f"A|{a.t_s!r}|{a.action}|{a.detail}\n".encode())
    for f in recorder.faults:
        h.update(f"F|{f.t_s!r}|{f.kind}|{f.detail}\n".encode())
    return h.hexdigest()


def _chaos_run_digest(seed: int = SEED) -> str:
    scenario = fig8_scenario("topk-topics")
    rngs = RngRegistry(seed)
    topology = scenario.make_topology(rngs)
    query = scenario.make_query(topology, rngs)
    run = ExperimentRun(topology, query, wasp(), rngs=rngs)
    injector = (
        ChaosInjector(rng=RngRegistry(seed).stream("chaos"))
        .at(120.0, SiteCrash(site="edge-1", duration_s=45.0))
        .at(
            200.0,
            BandwidthCollapse(
                src="dc-oregon", dst="dc-ohio", factor=0.3, duration_s=60.0
            ),
        )
        .at(300.0, Straggler(site="dc-oregon", slowdown=4.0, duration_s=80.0))
    )
    run.attach_chaos(injector)
    run.run(DURATION_S, bottleneck_dynamics())
    assert run.recorder.samples, "scenario produced no samples"
    return _recorder_digest(run.recorder)


def test_fixed_seed_chaos_run_is_deterministic() -> None:
    assert _chaos_run_digest() == _chaos_run_digest()


def test_plan_cache_does_not_change_recorder_output(monkeypatch) -> None:
    """Force a cache rebuild on every tick and compare bit-for-bit.

    If any cached value (site row, fraction, selectivity, source list)
    could drift from the live plan, rebuilding from scratch each tick
    would produce a different run.
    """
    cached = _chaos_run_digest()

    original_tick = EngineRuntime.tick
    rebuilds = {"n": 0}

    def tick_without_cache(self, *args, **kwargs):
        self._exec_cache = None
        rebuilds["n"] += 1
        return original_tick(self, *args, **kwargs)

    monkeypatch.setattr(EngineRuntime, "tick", tick_without_cache)
    uncached = _chaos_run_digest()
    assert rebuilds["n"] > 0
    assert cached == uncached


def test_mutation_version_invalidates_cache() -> None:
    scenario = fig8_scenario("topk-topics")
    rngs = RngRegistry(SEED)
    topology = scenario.make_topology(rngs)
    query = scenario.make_query(topology, rngs)
    run = ExperimentRun(topology, query, wasp(), rngs=rngs)
    runtime = run.runtime
    runtime.tick()
    cache = runtime._exec_cache
    assert cache is not None
    runtime.tick()
    assert runtime._exec_cache is cache  # unchanged plan: cache reused

    stage = next(
        s for s in runtime.plan.topological_stages() if not s.is_source
    )
    site = stage.tasks[0].site
    before = runtime.plan.mutation_version()
    stage.add_task(site)
    assert runtime.plan.mutation_version() > before
    runtime.tick()
    rebuilt = runtime._exec_cache
    assert rebuilt is not cache  # placement change invalidated the cache
    row = next(
        ex for ex in rebuilt.topo if ex.name == stage.name
    )
    counts = {s: n for s, _, n, *_ in row.site_rows}
    assert counts == stage.placement()


def test_version_bumps_cover_all_mutation_paths() -> None:
    scenario = fig8_scenario("topk-topics")
    rngs = RngRegistry(SEED)
    topology = scenario.make_topology(rngs)
    query = scenario.make_query(topology, rngs)
    run = ExperimentRun(topology, query, wasp(), rngs=rngs)
    stage = next(
        s for s in run.runtime.plan.topological_stages() if s.tasks
    )
    v = stage.version
    task = stage.add_task(stage.tasks[0].site)
    assert stage.version == v + 1
    stage.remove_task_at(task.site)
    assert stage.version == v + 2
    stage.add_task(stage.tasks[0].site)
    stage.remove_task_at(stage.tasks[0].site)
    assert stage.version == v + 4
    snapshot = list(stage.tasks)
    stage.clear_tasks()
    assert stage.version == v + 5 and not stage.tasks
    stage.set_tasks(snapshot)
    assert stage.version == v + 6 and stage.tasks == snapshot


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
