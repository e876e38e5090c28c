"""Recorded samples and metric windows hold plain Python numbers.

A numpy scalar that reaches a sample changes its ``repr`` under numpy 2
(``np.float64(1.5)``), so the recorder digest would depend on numpy's
major version, and every sum the engine takes with it runs on numpy
scalars.  Workloads hand the engine Python floats; these runs check every
field of every sample and every rate of every window a controller reads,
on a YSB run and on a Twitter-workload run.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines.variants import wasp
from repro.experiments.harness import ExperimentRun
from repro.experiments.scenarios import bottleneck_dynamics, fig8_scenario
from repro.sim.recorder import TickSample
from repro.sim.rng import RngRegistry

FIELD_TYPES = {
    f.name: {"float": float, "int": int}[f.type]
    for f in dataclasses.fields(TickSample)
}


def window_rates(window):
    yield "offered_eps", window.offered_eps
    for source, rate in window.source_generation_eps.items():
        yield f"source_generation_eps[{source}]", rate
    for name, stage in window.stages.items():
        yield f"{name}.lambda_p", stage.lambda_p
        for site, rate in stage.capacity_by_site.items():
            yield f"{name}.capacity_by_site[{site}]", rate
        for link, rate in stage.net_inflow.items():
            yield f"{name}.net_inflow[{link}]", rate


@pytest.mark.parametrize("query", ["ysb-advertising", "topk-topics"])
def test_samples_and_window_rates_are_plain_numbers(query):
    scenario = fig8_scenario(query)
    rngs = RngRegistry(42)
    topology = scenario.make_topology(rngs)
    run = ExperimentRun(
        topology, scenario.make_query(topology, rngs), wasp(), rngs=rngs
    )
    run.set_dynamics(bottleneck_dynamics())
    windows = []
    for _ in range(200):
        run.step()
        window = run.manager.last_window
        if window is not None and (not windows or windows[-1] is not window):
            windows.append(window)
    assert len(windows) >= 4

    samples = run.recorder.samples
    assert len(samples) == 200
    for sample in samples:
        for name, kind in FIELD_TYPES.items():
            value = getattr(sample, name)
            assert type(value) is kind, (sample.t_s, name, type(value))
    for window in windows:
        for name, value in window_rates(window):
            assert type(value) is float, (window.t_end_s, name, type(value))
