"""Shared machinery for the figure-regeneration benchmarks.

Each benchmark runs one of the paper's experiments end-to-end (seeded and
deterministic), prints the figure's rows/series via
:mod:`repro.experiments.figures`, and asserts the *shape* the paper reports
(who wins, in which direction).  Absolute numbers are not compared - the
substrate is a simulator, not the authors' testbed.

Expensive scenario runs are cached per session so that figure pairs sharing
runs (8/9, 11/12) compute once.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import FIGURE_SCENARIOS, run_variants

_CACHE: dict[str, dict] = {}

#: One shared seed so every figure reproduces the same world.
BENCH_SEED = 42


def scenario_runs(name: str):
    """Run (or fetch) a named scenario's full variant sweep."""
    if name in _CACHE:
        return _CACHE[name]
    runs = run_variants(FIGURE_SCENARIOS[name](), seed=BENCH_SEED)
    _CACHE[name] = runs
    return runs


@pytest.fixture
def bench_once(benchmark):
    """Run a callable exactly once under pytest-benchmark timing."""

    def runner(fn):
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    return runner
