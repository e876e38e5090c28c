"""A finished run is freed by reference counting alone.

A Section 8 sweep makes many independent runs, so its peak memory depends
on how soon each finished run is freed.  No component of a run holds a
strong reference back to its owner, and no callback closes over the run,
so the run's object graph is acyclic: once its last reference goes, the
whole run is freed at once, without waiting for a cyclic collection.

Each case builds a run with the cyclic collector off, drives it, drops
it, and asserts that a weak reference to it is dead and that no object of
its graph was left for the collector (a cycle among components, below the
run, would free the run but leak them).
"""

from __future__ import annotations

import dataclasses
import gc
import weakref
from enum import Enum
from types import FunctionType, ModuleType

import pytest

from repro.baselines.variants import degrade, no_adapt, wasp, wasp_long_term
from repro.config import WaspConfig
from repro.engine.dense import DenseEngineRuntime
from repro.experiments.harness import ExperimentRun
from repro.experiments.multiquery import MultiQueryRun, QuerySubmission
from repro.experiments.scenarios import (
    LIVE_FAILURE_AT_S,
    LIVE_FAILURE_DURATION_S,
    MIGRATION_TRIGGER_AT_S,
    build_migration_run,
    fig8_scenario,
    fig11_scenario,
    force_reassignment,
    migration_variants,
)
from repro.fuzz.campaign import run_scenario
from repro.fuzz.generate import build_run, generate_scenario
from repro.fuzz.invariants import InvariantChecker
from repro.network.traces import paper_testbed
from repro.sim.rng import RngRegistry
from repro.workloads.queries import topk_topics, ysb_advertising

RUN_S = 200.0


@pytest.fixture(autouse=True)
def collector_off():
    """Only reference counting may free a run inside a test."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _graph_refs(root) -> list[weakref.ref]:
    """Weak references to every ``repro`` object reachable from ``root``.

    Functions are entered through their closures and defaults only, so
    the walk never escapes into module globals."""
    seen: set[int] = set()
    refs = []
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType)):
            continue
        seen.add(id(obj))
        if type(obj).__module__.startswith("repro.") and not isinstance(
            obj, Enum
        ):
            try:
                refs.append(weakref.ref(obj))
            except TypeError:  # no __weakref__ slot
                pass
        if isinstance(obj, FunctionType):
            for cell in obj.__closure__ or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # empty cell
                    pass
            stack.extend(obj.__defaults__ or ())
            continue
        stack.extend(gc.get_referents(obj))
    return refs


def assert_freed_by_refcount(make):
    """Build a finished run with ``make()``, drop it, and assert reference
    counting alone freed it and every object of its graph."""
    run = make()
    ref = weakref.ref(run)
    graph = _graph_refs(run)
    del run
    assert ref() is None, "the finished run outlived its last reference"
    # Still-alive graph objects are either shared beyond the run (registry
    # specs, say) or cyclic garbage; only the collector tells them apart.
    pending = [(r, type(r()).__qualname__) for r in graph if r() is not None]
    gc.collect()
    leaked = sorted({name for r, name in pending if r() is None})
    assert not leaked, f"left for the cyclic collector: {leaked}"


def _scenario_run(scenario, variant, *, config=None) -> ExperimentRun:
    """One line of a figure, wired as ``run_variants`` wires it."""
    rngs = RngRegistry(42)
    topology = scenario.make_topology(rngs)
    query = scenario.make_query(topology, rngs)
    run = ExperimentRun(topology, query, variant, config=config, rngs=rngs)
    run.set_dynamics(scenario.make_dynamics(rngs))
    return run


def _fig8(variant, *, config=None):
    run = _scenario_run(fig8_scenario("topk-topics"), variant, config=config)
    run.run(RUN_S)
    return run


def _long_term():
    run = _fig8(wasp_long_term())
    assert run.long_term is not None
    return run


def _fig11_wasp():
    """The live environment: its crash fires through an injector that
    also hooks the controller's adaptation points."""
    run = _scenario_run(fig11_scenario(), wasp())
    run.run(LIVE_FAILURE_AT_S + LIVE_FAILURE_DURATION_S + 20.0)
    assert run.manager.adaptation_hook is not None
    assert len(run.recorder.faults) == 2  # the crash and its revert
    return run


def _fig13_migration():
    run = build_migration_run(migration_variants()[1], 100.0)
    run.run(MIGRATION_TRIGGER_AT_S)
    force_reassignment(run)
    run.run(20.0)
    assert run.manager.history
    return run


def _fuzz_checked():
    # Seed 2 crashes and recovers sites; WASP adds a hooked controller.
    spec = dataclasses.replace(generate_scenario(2), variant="WASP")
    run, dynamics = build_run(spec)
    run.attach_checker(InvariantChecker())
    run.run(RUN_S, dynamics)
    assert run.replayed_source_equiv > 0.0
    return run


def _traced(tmp_path):
    run = _scenario_run(fig8_scenario("topk-topics"), wasp())
    run.attach_trace(tmp_path / "trace.jsonl")
    run.run(RUN_S)
    run.obs.close()
    return run


def _dense():
    config = WaspConfig.paper_defaults().with_overrides(
        engine_backend="dense"
    )
    run = _fig8(wasp(), config=config)
    assert isinstance(run.runtime, DenseEngineRuntime)
    return run


RUN_KINDS = {
    "no-adapt": lambda tmp_path: _fig8(no_adapt()),
    "degrade": lambda tmp_path: _fig8(degrade()),
    "wasp": lambda tmp_path: _fig8(wasp()),
    "wasp-long-term": lambda tmp_path: _long_term(),
    "fig11-wasp": lambda tmp_path: _fig11_wasp(),
    "fig13-migration": lambda tmp_path: _fig13_migration(),
    "fuzz-checked": lambda tmp_path: _fuzz_checked(),
    "jsonl-traced": _traced,
    "dense": lambda tmp_path: _dense(),
}


@pytest.mark.parametrize("kind", sorted(RUN_KINDS))
def test_finished_run_is_freed_by_refcount(kind, tmp_path):
    assert_freed_by_refcount(lambda: RUN_KINDS[kind](tmp_path))


def _multi_query():
    rngs = RngRegistry(42)
    topology = paper_testbed(rngs.stream("topology"))
    multi = MultiQueryRun(
        topology,
        [
            QuerySubmission(ysb_advertising(topology), wasp()),
            QuerySubmission(
                topk_topics(topology, rngs.stream("query")), wasp()
            ),
        ],
        rngs=rngs,
    )
    multi.run(RUN_S)
    assert len(multi.runs) == 2
    return multi


def test_multi_query_run_and_its_runs_are_freed_by_refcount():
    assert_freed_by_refcount(_multi_query)


def test_checker_findings_outlive_its_run():
    """``run_scenario`` reads the checker after ``_execute`` dropped the
    run; the findings must not depend on the run still being alive."""
    spec = dataclasses.replace(generate_scenario(2), variant="WASP")
    run, dynamics = build_run(spec)
    checker = InvariantChecker()
    run.attach_checker(checker)
    run.run(RUN_S, dynamics)
    ticks, checks = checker.ticks_checked, dict(checker.checks)
    violations = list(checker.violations)
    ref = weakref.ref(run)
    del run, dynamics
    assert ref() is None
    assert ticks == int(RUN_S)
    assert checker.ticks_checked == ticks
    assert checker.checks == checks and checks["conservation"] > 0
    assert checker.violations == violations
    # An unbound checker's hooks are no-ops, not errors.
    checker.on_step_end()
    assert checker.ticks_checked == ticks


def test_run_scenario_reports_a_freed_runs_findings():
    result = run_scenario(generate_scenario(2))
    assert result.ticks == int(generate_scenario(2).duration_s)
    assert result.checks["conservation"] > 0
