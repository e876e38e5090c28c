"""Public facade for the WASP reproduction.

Most applications only need four things:

1. a **topology** - build the paper's 16-node testbed with
   :func:`build_testbed` or assemble your own from
   :class:`~repro.network.site.Site` + :class:`~repro.network.topology.Topology`;
2. a **query** - use a Table-3 benchmark query (:func:`benchmark_query`) or
   define your own :class:`~repro.engine.logical.LogicalPlan` with the
   operator constructors in :mod:`repro.engine.operators`;
3. a **variant** - how the system reacts to dynamics
   (:func:`~repro.baselines.variants.wasp`,
   :func:`~repro.baselines.variants.no_adapt`, ...);
4. a **run** - :func:`launch` wires everything (WAN-aware deployment, fluid
   engine, monitoring loop, WASP controller) into an
   :class:`~repro.experiments.harness.ExperimentRun` you can ``run()``
   or single-``step()``.

Example::

    from repro import api

    run = api.launch("topk-topics", api.wasp(), seed=7)
    recorder = run.run(600, api.bottleneck_dynamics())
    print(recorder.mean_delay(), recorder.processed_fraction())
"""

from __future__ import annotations

from .baselines.variants import (
    VariantSpec,
    degrade,
    no_adapt,
    reassign_only,
    replan_only,
    scale_only,
    wasp,
)
from .chaos.faults import SiteCrash, Straggler
from .config import WaspConfig
from .experiments.harness import DynamicsSpec, ExperimentRun
from .experiments.scenarios import (
    bottleneck_dynamics,
    live_dynamics,
    make_query_by_name,
    quiet_dynamics,
    technique_dynamics,
)
from .network.topology import Topology
from .network.traces import TestbedSpec, paper_testbed
from .sim.rng import RngRegistry
from .sim.schedule import Schedule
from .workloads.queries import BenchmarkQuery

__all__ = [
    "BenchmarkQuery",
    "DynamicsSpec",
    "ExperimentRun",
    "Schedule",
    "SiteCrash",
    "Straggler",
    "Topology",
    "VariantSpec",
    "WaspConfig",
    "benchmark_query",
    "bottleneck_dynamics",
    "build_testbed",
    "degrade",
    "launch",
    "live_dynamics",
    "no_adapt",
    "quiet_dynamics",
    "reassign_only",
    "replan_only",
    "scale_only",
    "technique_dynamics",
    "wasp",
]


def build_testbed(
    seed: int = WaspConfig().seed, spec: TestbedSpec | None = None
) -> Topology:
    """The Section-8.2 testbed: 8 edge nodes + 8 data-center nodes."""
    rngs = RngRegistry(seed)
    return paper_testbed(rngs.stream("topology"), spec)


def benchmark_query(
    name: str, topology: Topology, seed: int = WaspConfig().seed
) -> BenchmarkQuery:
    """One of the Table-3 queries bound to ``topology``."""
    rngs = RngRegistry(seed)
    return make_query_by_name(name)(topology, rngs)


def launch(
    query: str | BenchmarkQuery,
    variant: VariantSpec | None = None,
    *,
    topology: Topology | None = None,
    config: WaspConfig | None = None,
    seed: int | None = None,
) -> ExperimentRun:
    """Deploy a query and return a runnable experiment.

    Args:
        query: A Table-3 query name or a pre-built :class:`BenchmarkQuery`.
        variant: Adaptation behaviour; defaults to the full WASP policy.
        topology: WAN topology; the paper testbed is built when omitted.
        config: Controller configuration (paper defaults when omitted).
        seed: Master seed for topology/workload/controller randomness.

    Returns:
        A wired :class:`ExperimentRun`; call ``run(duration, dynamics)`` or
        drive it tick-by-tick with ``step()``.
    """
    config = config or WaspConfig.paper_defaults()
    master_seed = seed if seed is not None else config.seed
    rngs = RngRegistry(master_seed)
    if topology is None:
        topology = paper_testbed(rngs.stream("topology"))
    if isinstance(query, str):
        query = make_query_by_name(query)(topology, rngs)
    return ExperimentRun(
        topology,
        query,
        variant or wasp(),
        config=config,
        rngs=rngs,
    )
