"""Seeded random scenario generation for the fuzzing campaign.

A :class:`ScenarioSpec` is a pure-data description of one run: topology
(sites, slots, a full directed bandwidth/latency mesh), query, controller
variant, workload/bandwidth factor schedules, a chaos fault plan and config
overrides.  Every field is JSON-serializable so a failing scenario can be
committed as a repro fixture and replayed bit-for-bit.

:func:`generate_scenario` draws a spec from :class:`~repro.sim.rng.RngRegistry`
streams keyed off a single seed; :func:`build_run` turns a spec back into a
wired :class:`~repro.experiments.harness.ExperimentRun` deterministically.
Value ranges follow the paper testbed (Section 8.1): DC-to-DC links at
25-250 Mbps, edge links at 2-30 Mbps, 10-150 ms latencies, 8-slot DCs and
small edge sites.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from ..baselines.variants import ALL_NAMED, VariantSpec
from ..chaos.faults import (
    BandwidthCollapse,
    CheckpointLoss,
    Fault,
    LinkFlap,
    SiteCrash,
    SlotRevocation,
    Straggler,
)
from ..config import WaspConfig
from ..errors import ConfigurationError
from ..experiments.harness import DynamicsSpec, ExperimentRun
from ..experiments.scenarios import QUERIES, make_query_by_name
from ..network.site import Site, SiteKind
from ..network.topology import Topology
from ..sim.rng import RngRegistry
from ..sim.schedule import Schedule

#: Controller variants the generator draws from.
VARIANT_NAMES = tuple(sorted(ALL_NAMED))

#: Fault kinds the generator draws from (see :mod:`repro.chaos.faults`).
FAULT_KINDS = (
    "site-crash",
    "bandwidth-collapse",
    "link-flap",
    "straggler",
    "checkpoint-loss",
    "slot-revocation",
)


@dataclass(frozen=True)
class SiteSpec:
    """One site: name, kind (``edge``/``dc``), slots, processing rate."""

    name: str
    kind: str
    slots: int
    proc_rate_eps: float


@dataclass(frozen=True)
class LinkSpec:
    """One directed WAN link."""

    src: str
    dst: str
    bandwidth_mbps: float
    latency_ms: float


@dataclass(frozen=True)
class ScheduleSpec:
    """A factor schedule as explicit breakpoints (JSON-friendly)."""

    initial: float = 1.0
    steps: tuple = ()  # ((t_s, factor), ...)

    def to_schedule(self) -> Schedule:
        return Schedule(
            [(float(t), float(f)) for t, f in self.steps],
            initial=float(self.initial),
        )


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled chaos fault (fired via ``ChaosInjector.at``)."""

    at_s: float
    kind: str
    params: dict = field(default_factory=dict)

    def to_fault(self) -> Fault:
        p = self.params
        if self.kind == "site-crash":
            return SiteCrash(site=p["site"], duration_s=p["duration_s"])
        if self.kind == "bandwidth-collapse":
            return BandwidthCollapse(
                src=p["src"], dst=p["dst"], factor=p["factor"],
                duration_s=p["duration_s"],
            )
        if self.kind == "link-flap":
            return LinkFlap(
                src=p["src"], dst=p["dst"], factor=p["factor"],
                down_s=p["down_s"], up_s=p["up_s"],
                duration_s=p["duration_s"],
            )
        if self.kind == "straggler":
            return Straggler(
                site=p["site"], slowdown=p["slowdown"],
                duration_s=p["duration_s"],
            )
        if self.kind == "checkpoint-loss":
            return CheckpointLoss(site=p["site"])
        if self.kind == "slot-revocation":
            return SlotRevocation(
                site=p["site"], count=int(p["count"]),
                duration_s=p["duration_s"],
            )
        raise ConfigurationError(f"unknown fault kind {self.kind!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, replayable fuzz scenario."""

    seed: int
    sites: tuple  # tuple[SiteSpec, ...]
    links: tuple  # tuple[LinkSpec, ...]
    query: str
    variant: str
    duration_s: float
    workload_schedule: ScheduleSpec | None = None
    bandwidth_schedule: ScheduleSpec | None = None
    faults: tuple = ()  # tuple[FaultSpec, ...]
    config_overrides: dict = field(default_factory=dict)

    # -- serialization --------------------------------------------------- #

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        overrides = dict(data.get("config_overrides", {}))
        WaspConfig.check_fields(overrides)

        def sched(value):
            if value is None:
                return None
            return ScheduleSpec(
                initial=value["initial"],
                steps=tuple(tuple(s) for s in value["steps"]),
            )

        return cls(
            seed=int(data["seed"]),
            sites=tuple(SiteSpec(**s) for s in data["sites"]),
            links=tuple(LinkSpec(**l) for l in data["links"]),
            query=data["query"],
            variant=data["variant"],
            duration_s=float(data["duration_s"]),
            workload_schedule=sched(data.get("workload_schedule")),
            bandwidth_schedule=sched(data.get("bandwidth_schedule")),
            faults=tuple(
                FaultSpec(
                    at_s=f["at_s"], kind=f["kind"],
                    params=dict(f["params"]),
                )
                for f in data.get("faults", ())
            ),
            config_overrides=overrides,
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    # -- convenience ----------------------------------------------------- #

    @property
    def site_names(self) -> list[str]:
        return [s.name for s in self.sites]


# --------------------------------------------------------------------------- #
# Generation
# --------------------------------------------------------------------------- #


def generate_scenario(seed: int) -> ScenarioSpec:
    """Draw one scenario from RNG streams derived from ``seed``.

    Topologies have 3-16 sites (1-8 edges, 1-8 DCs), always with enough
    slots for an initial deployment; the link mesh is a full directed graph
    so :meth:`Topology.bandwidth_mbps` is total.  Fault times land inside
    the run, leaving headroom for the fault to play out.
    """
    rngs = RngRegistry(seed)

    # -- topology -------------------------------------------------------- #
    topo_rng = rngs.stream("fuzz.topology")
    n_edges = int(topo_rng.integers(1, 9))
    n_dcs = int(topo_rng.integers(1, 9))
    total = n_edges + n_dcs
    if total < 3:  # pad to the 3-site floor with DCs
        n_dcs += 3 - total
    sites: list[SiteSpec] = []
    for i in range(n_edges):
        sites.append(
            SiteSpec(
                name=f"edge-{i}",
                kind="edge",
                slots=int(topo_rng.integers(4, 7)),
                proc_rate_eps=float(topo_rng.integers(20, 61) * 1000),
            )
        )
    for i in range(n_dcs):
        sites.append(
            SiteSpec(
                name=f"dc-{i}",
                kind="dc",
                slots=int(topo_rng.integers(8, 13)),
                proc_rate_eps=float(topo_rng.integers(30, 81) * 1000),
            )
        )
    names = [s.name for s in sites]
    dc_names = {s.name for s in sites if s.kind == "dc"}
    links: list[LinkSpec] = []
    for src in names:
        for dst in names:
            if src == dst:
                continue
            if src in dc_names and dst in dc_names:
                bw = float(topo_rng.uniform(25.0, 250.0))
            else:
                bw = float(topo_rng.uniform(2.0, 30.0))
            links.append(
                LinkSpec(
                    src=src,
                    dst=dst,
                    bandwidth_mbps=round(bw, 3),
                    latency_ms=round(float(topo_rng.uniform(10.0, 150.0)), 2),
                )
            )

    # -- query / variant / duration -------------------------------------- #
    query_rng = rngs.stream("fuzz.query")
    query = tuple(QUERIES)[int(query_rng.integers(len(QUERIES)))]
    variant = VARIANT_NAMES[int(query_rng.integers(len(VARIANT_NAMES)))]
    duration_s = float([120.0, 180.0, 240.0][int(query_rng.integers(3))])

    # -- dynamics schedules ---------------------------------------------- #
    dyn_rng = rngs.stream("fuzz.dynamics")
    workload_schedule = None
    if dyn_rng.uniform() < 0.8:
        steps = []
        t = float(dyn_rng.integers(20, 61))
        while t < duration_s - 10:
            steps.append((t, round(float(dyn_rng.uniform(0.4, 2.5)), 3)))
            t += float(dyn_rng.integers(20, 61))
        workload_schedule = ScheduleSpec(initial=1.0, steps=tuple(steps))
    bandwidth_schedule = None
    if dyn_rng.uniform() < 0.5:
        steps = []
        t = float(dyn_rng.integers(20, 61))
        while t < duration_s - 10:
            steps.append((t, round(float(dyn_rng.uniform(0.3, 1.3)), 3)))
            t += float(dyn_rng.integers(20, 61))
        bandwidth_schedule = ScheduleSpec(initial=1.0, steps=tuple(steps))

    # -- faults ----------------------------------------------------------- #
    fault_rng = rngs.stream("fuzz.faults")
    n_faults = int(fault_rng.integers(0, 5))
    faults: list[FaultSpec] = []
    for _ in range(n_faults):
        kind = FAULT_KINDS[int(fault_rng.integers(len(FAULT_KINDS)))]
        at_s = float(fault_rng.integers(10, max(11, int(duration_s) - 30)))
        site = names[int(fault_rng.integers(len(names)))]
        src = names[int(fault_rng.integers(len(names)))]
        dst_choices = [n for n in names if n != src]
        dst = dst_choices[int(fault_rng.integers(len(dst_choices)))]
        duration = float(fault_rng.integers(20, 61))
        if kind == "site-crash":
            params = {"site": site, "duration_s": duration}
        elif kind == "bandwidth-collapse":
            params = {
                "src": src, "dst": dst,
                "factor": round(float(fault_rng.uniform(0.0, 0.3)), 3),
                "duration_s": duration,
            }
        elif kind == "link-flap":
            params = {
                "src": src, "dst": dst,
                "factor": round(float(fault_rng.uniform(0.0, 0.3)), 3),
                "down_s": float(fault_rng.integers(5, 16)),
                "up_s": float(fault_rng.integers(5, 16)),
                "duration_s": duration,
            }
        elif kind == "straggler":
            params = {
                "site": site,
                "slowdown": round(float(fault_rng.uniform(2.0, 6.0)), 2),
                "duration_s": duration,
            }
        elif kind == "checkpoint-loss":
            params = {"site": site}
        else:  # slot-revocation
            params = {"site": site, "count": 1, "duration_s": duration}
        faults.append(FaultSpec(at_s=at_s, kind=kind, params=params))
    faults.sort(key=lambda f: (f.at_s, f.kind))

    # -- config overrides -------------------------------------------------- #
    cfg_rng = rngs.stream("fuzz.config")
    overrides: dict = {}
    overrides["monitor_interval_s"] = float(
        [20.0, 30.0, 40.0][int(cfg_rng.integers(3))]
    )
    if cfg_rng.uniform() < 0.5:
        overrides["checkpoint_interval_s"] = float(
            [15.0, 30.0][int(cfg_rng.integers(2))]
        )
    if cfg_rng.uniform() < 0.5:
        overrides["alpha"] = float([0.6, 0.7, 0.8, 0.9][int(cfg_rng.integers(4))])

    return ScenarioSpec(
        seed=seed,
        sites=tuple(sites),
        links=tuple(links),
        query=query,
        variant=variant,
        duration_s=duration_s,
        workload_schedule=workload_schedule,
        bandwidth_schedule=bandwidth_schedule,
        faults=tuple(faults),
        config_overrides=overrides,
    )


# --------------------------------------------------------------------------- #
# Materialization
# --------------------------------------------------------------------------- #


def build_topology(spec: ScenarioSpec) -> Topology:
    """Materialize the spec's sites and full directed link mesh."""
    sites = [
        Site(
            s.name,
            SiteKind.EDGE if s.kind == "edge" else SiteKind.DATA_CENTER,
            total_slots=s.slots,
            proc_rate_eps=s.proc_rate_eps,
        )
        for s in spec.sites
    ]
    topology = Topology(sites)
    for link in spec.links:
        topology.set_link(
            link.src, link.dst, link.bandwidth_mbps, link.latency_ms
        )
    return topology


def build_dynamics(spec: ScenarioSpec) -> DynamicsSpec:
    """Materialize the spec's factor schedules and fault plan as a driver
    program."""
    return DynamicsSpec(
        workload_schedule=(
            spec.workload_schedule.to_schedule()
            if spec.workload_schedule
            else None
        ),
        bandwidth_schedule=(
            spec.bandwidth_schedule.to_schedule()
            if spec.bandwidth_schedule
            else None
        ),
        faults=[(fault.at_s, fault.to_fault()) for fault in spec.faults],
    )


def build_run(spec: ScenarioSpec) -> tuple[ExperimentRun, DynamicsSpec]:
    """Wire a spec into a ready-to-run experiment and its driver program.

    Deterministic: the run's RNG registry is derived solely from
    ``spec.seed``, so the same spec always produces the same run.
    """
    rngs = RngRegistry(spec.seed)
    topology = build_topology(spec)
    query = make_query_by_name(spec.query)(topology, rngs)
    variant: VariantSpec = ALL_NAMED[spec.variant]
    config = WaspConfig.paper_defaults().with_overrides(
        **spec.config_overrides
    )
    run = ExperimentRun(topology, query, variant, config=config, rngs=rngs)
    return run, build_dynamics(spec)
