#!/usr/bin/env python
"""Define and run a custom geo-distributed query on a custom topology.

Models the paper's Figure-5 scenario: a commutative 4-way join over streams
originating at four sites (A, B, C, D).  The join-tree enumerator produces
every bracketing - 15 plans for 4 inputs - with canonical operator names, so
plans that join the same subset share the operator and its state; the
WAN-aware planner picks the cheapest deployment and the re-planner may
switch bracketing when bandwidth shifts.

Run:  python examples/custom_query.py
"""

from repro.api import launch
from repro.baselines.variants import wasp
from repro.engine.logical import can_replace_preserving_state
from repro.engine.operators import filter_, join, sink, source
from repro.experiments.harness import DynamicsSpec
from repro.network.site import Site, SiteKind
from repro.network.topology import Topology
from repro.planner.enumerate import branch_from_ops, join_tree_plans
from repro.sim.schedule import Schedule
from repro.workloads.base import ShapedWorkload
from repro.workloads.queries import BenchmarkQuery, Table3Row


def build_topology() -> Topology:
    """Four sites in a heterogeneous full mesh (bandwidth in Mbps)."""
    sites = [
        Site("site-a", SiteKind.DATA_CENTER, 6),
        Site("site-b", SiteKind.DATA_CENTER, 6),
        Site("site-c", SiteKind.EDGE, 4),
        Site("site-d", SiteKind.EDGE, 4),
    ]
    topo = Topology(sites)
    links = {
        ("site-a", "site-b"): (120.0, 30.0),
        ("site-a", "site-c"): (25.0, 60.0),
        ("site-a", "site-d"): (40.0, 80.0),
        ("site-b", "site-c"): (60.0, 45.0),
        ("site-b", "site-d"): (15.0, 90.0),
        ("site-c", "site-d"): (10.0, 40.0),
    }
    for (a, b), (bw, lat) in links.items():
        topo.set_link(a, b, bw, lat)
        topo.set_link(b, a, bw, lat)
    return topo


def build_query(topo: Topology) -> BenchmarkQuery:
    """A 4-way hash join: sources at every site, joins commutative."""
    branches = []
    for key in ("site-a", "site-b", "site-c", "site-d"):
        src = source(f"stream@{key}", key, event_bytes=120.0)
        flt = filter_(f"clean@{key}", selectivity=0.5, event_bytes=100.0)
        branches.append(branch_from_ops(key, [src, flt]))

    def join_factory(name, leaves):
        # Joins over larger subsets carry more state; all are windowed so
        # the re-planner may switch bracketing at window boundaries.
        return join(
            name,
            selectivity=0.8,
            state_mb=4.0 * len(leaves),
            event_bytes=110.0,
            window_s=15.0,
        )

    variants = join_tree_plans(
        "four-way-join", branches, join_factory, sink("sink"), max_variants=15
    )
    workload = ShapedWorkload(
        {f"stream@{k}": 5_000.0 for k in ("site-a", "site-b", "site-c", "site-d")}
    )
    return BenchmarkQuery(
        name="four-way-join",
        variants=tuple(variants),
        workload=workload,
        table3=Table3Row("Custom Join", "~16 MB", ("filter", "join"), "synthetic"),
    )


def main() -> None:
    topo = build_topology()
    query = build_query(topo)
    print(f"enumerated {len(query.variants)} join bracketings, e.g.:")
    for variant in query.variants[:3]:
        joins = [op.name for op in variant.topological() if "join" in op.name]
        print(f"  {variant.name}: {' ; '.join(joins)}")
    safe = sum(
        can_replace_preserving_state(query.primary, v)
        for v in query.variants[1:]
    )
    print(f"state-safe alternatives to {query.primary.name}: {safe}\n")

    run = launch(query, wasp(), topology=topo, seed=3)
    print(f"planner chose: {run.runtime.plan.logical.name}")
    for stage in run.runtime.plan.topological_stages():
        if not stage.is_source:
            print(f"  {stage.name:24s} -> {stage.placement()}")

    # Degrade the A<->B backbone and watch the controller react.
    dynamics = DynamicsSpec(
        link_bandwidth_schedules={
            ("site-a", "site-b"): Schedule([(0.0, 1.0), (120.0, 0.01)]),
            ("site-b", "site-a"): Schedule([(0.0, 1.0), (120.0, 0.01)]),
        }
    )
    recorder = run.run(420, dynamics)
    print(f"\nmean delay: {recorder.mean_delay():.2f}s, "
          f"processed: {recorder.processed_fraction() * 100:.1f}%")
    for record in run.manager.history:
        print(f"  t={record.t_s:5.0f}s {record.kind.value:10s} {record.stage}")
    print(f"final plan: {run.runtime.plan.logical.name}")


if __name__ == "__main__":
    main()
