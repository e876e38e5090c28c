"""The three location-based benchmark queries of Table 3 (Section 8.3).

==============  =========  ==========================  ====================
Application     State      Operators                   Dataset
==============  =========  ==========================  ====================
Advertising     <10 MB     filter, map, window, join   YSB, synthetic data
Campaign
Top-K Popular   ~100 MB    filter, map, union,         Twitter trace
Topics                     window, reduce              (scaled)
Events of       0 MB       filter, union, project      Twitter trace
Interest                                               (scaled)
==============  =========  ==========================  ====================

Each query is packaged as a :class:`BenchmarkQuery`: its logical-plan
variants (the primary plan plus the re-planner's alternatives, with shared
sub-plans sharing operator names), its workload model, and the Table-3
metadata the benchmark harness prints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.logical import LogicalPlan
from ..engine.operators import (
    OperatorSpec,
    filter_,
    join,
    map_,
    project,
    sink,
    source,
    top_k,
    union,
    window_aggregate,
)
from ..errors import ConfigurationError
from ..network.site import SiteKind
from ..network.topology import Topology
from ..network.traces import EC2_REGIONS
from ..planner.enumerate import (
    Branch,
    aggregation_grouping_plans,
    branch_from_ops,
)
from .base import ShapedWorkload
from .twitter import (
    TOPIC_EVENT_BYTES,
    TWEET_EVENT_BYTES,
    TWEET_FILTER_SELECTIVITY,
    TwitterSpec,
    TwitterWorkload,
)
from .ysb import (
    PROJECTED_EVENT_BYTES,
    RAW_EVENT_BYTES,
    VIEW_FILTER_SELECTIVITY,
    YsbSpec,
    YsbWorkload,
)

#: Region -> continent, used to build regional pre-aggregation groupings.
CONTINENT_OF_REGION: dict[str, str] = {
    "oregon": "americas",
    "ohio": "americas",
    "sao-paulo": "americas",
    "ireland": "europe",
    "frankfurt": "europe",
    "seoul": "asia",
    "singapore": "asia",
    "mumbai": "asia",
}


@dataclass(frozen=True)
class Table3Row:
    """One row of Table 3."""

    application: str
    state: str
    operators: tuple[str, ...]
    dataset: str


@dataclass(frozen=True)
class BenchmarkQuery:
    """A benchmark query: plan variants + workload + metadata."""

    name: str
    variants: tuple[LogicalPlan, ...]
    workload: ShapedWorkload
    table3: Table3Row

    @property
    def primary(self) -> LogicalPlan:
        return self.variants[0]

    @property
    def stateful(self) -> bool:
        return any(
            op.stateful for op in self.primary.topological()
        )


def _edge_sites(topology: Topology) -> list[str]:
    sites = sorted(s.name for s in topology.sites_of_kind(SiteKind.EDGE))
    if not sites:
        raise ConfigurationError("topology has no edge sites")
    return sites


def _continent_groupings(
    branch_keys: list[str], home_region: dict[str, str]
) -> list[list[list[str]]]:
    """Candidate aggregation orderings over branch keys (Section 4.3).

    Four shapes give the re-planner meaningfully different WAN footprints:

    * **direct** - every branch feeds the final aggregation (no partials);
    * **continental** - one partial aggregation per continent;
    * **pairs** - partial aggregations over intra-continent pairs: more,
      smaller convergence points, so placement has more freedom when links
      are constrained;
    * **global** - a single pre-aggregation in front of the final operator.
    """
    direct = [[k] for k in branch_keys]
    by_continent: dict[str, list[str]] = {}
    for key in branch_keys:
        continent = CONTINENT_OF_REGION.get(home_region[key], "other")
        by_continent.setdefault(continent, []).append(key)

    continental: list[list[str]] = []
    pairs: list[list[str]] = []
    for continent in sorted(by_continent):
        members = by_continent[continent]
        if len(members) >= 2:
            continental.append(members)
        else:
            continental.extend([[m] for m in members])
        for i in range(0, len(members) - 1, 2):
            pairs.append(members[i : i + 2])
        if len(members) % 2 == 1:
            pairs.append([members[-1]])

    global_group = [list(branch_keys)]

    groupings: list[list[list[str]]] = [direct]
    for candidate in (continental, pairs, global_group):
        if candidate != direct and candidate not in groupings:
            groupings.append(candidate)
    return groupings


def _edge_home_regions(topology: Topology, edges: list[str]) -> dict[str, str]:
    """Home region per edge site under the paper_testbed convention
    (``edge-i`` homed at the i-th EC2 region)."""
    regions = list(EC2_REGIONS)
    homes: dict[str, str] = {}
    for name in edges:
        try:
            index = int(name.rsplit("-", 1)[1])
        except (IndexError, ValueError):
            index = 0
        homes[name] = regions[index % len(regions)]
    return homes


# --------------------------------------------------------------------------- #
# 1. YSB Advertising Campaign (stateful: windowed join + count)
# --------------------------------------------------------------------------- #


def ysb_advertising(
    topology: Topology, spec: YsbSpec | None = None
) -> BenchmarkQuery:
    """Advertising Campaign: relevant ads per campaign every 10 seconds.

    Ad events stream from every edge site; a campaign-metadata stream lives
    at a data center.  The windowed join correlates ads with campaigns and a
    10-second windowed count aggregates per campaign.  There is no useful
    aggregation re-ordering for a two-input join, so the query has a single
    plan variant - the paper's YSB runs likewise adapt only physically.
    """
    spec = spec or YsbSpec()
    edges = _edge_sites(topology)
    dcs = sorted(s.name for s in topology.sites_of_kind(SiteKind.DATA_CENTER))
    if not dcs:
        raise ConfigurationError("topology has no data-center sites")
    campaign_site = dcs[0]

    operators: list[OperatorSpec] = []
    edges_list: list[tuple[str, str]] = []
    join_name = "join{ads+campaigns}"
    for site in edges:
        src = source(f"ads@{site}", site, event_bytes=RAW_EVENT_BYTES)
        flt = filter_(
            f"view-filter@{site}",
            selectivity=VIEW_FILTER_SELECTIVITY,
            event_bytes=PROJECTED_EVENT_BYTES,
            cost=0.4,
        )
        operators.extend([src, flt])
        edges_list.append((src.name, flt.name))
        edges_list.append((flt.name, join_name))
    campaigns = source(
        "campaigns@dc", campaign_site, event_bytes=120.0
    )
    campaign_map = map_(
        "campaign-map", event_bytes=100.0, cost=0.5
    )
    operators.extend([campaigns, campaign_map])
    edges_list.append((campaigns.name, campaign_map.name))
    edges_list.append((campaign_map.name, join_name))

    ad_join = join(
        join_name,
        selectivity=1.0,
        state_mb=6.0,
        event_bytes=100.0,
        cost=1.0,
        window_s=10.0,
    )
    win = window_aggregate(
        "win-campaign",
        window_s=10.0,
        selectivity=0.001,
        state_mb=3.0,
        keyed_by="campaign_id",
        event_bytes=64.0,
        cost=0.8,
    )
    out = sink("sink")
    operators.extend([ad_join, win, out])
    edges_list.append((join_name, win.name))
    edges_list.append((win.name, out.name))

    plan = LogicalPlan.from_edges("ysb-advertising#0", operators, edges_list)
    workload = YsbWorkload(
        [f"ads@{site}" for site in edges], "campaigns@dc", spec
    )
    return BenchmarkQuery(
        name="ysb-advertising",
        variants=(plan,),
        workload=workload,
        table3=Table3Row(
            application="Advertising Campaign",
            state="<10 MB",
            operators=("filter", "map", "window", "join"),
            dataset="YSB, synthetic data",
        ),
    )


# --------------------------------------------------------------------------- #
# 2. Top-K Popular Topics (stateful: ~100 MB windowed reduce + top-k)
# --------------------------------------------------------------------------- #


def topk_topics(
    topology: Topology,
    rng: np.random.Generator,
    spec: TwitterSpec | None = None,
    *,
    state_mb: float = 90.0,
) -> BenchmarkQuery:
    """Top-10 most popular topics per country over 30-second windows.

    Tweets stream from every edge site (Zipf spatial skew + diurnal cycle).
    Plan variants differ in aggregation ordering (Section 4.3): tweets
    either flow directly into the per-country windowed reduce, or
    pre-aggregate per continent first; the windowed operators' short state
    makes switching safe at window boundaries.
    """
    spec = spec or TwitterSpec()
    edges = _edge_sites(topology)
    homes = _edge_home_regions(topology, edges)

    branches: list[Branch] = []
    for site in edges:
        src = source(f"tweets@{site}", site, event_bytes=TWEET_EVENT_BYTES)
        flt = filter_(
            f"tweet-filter@{site}",
            selectivity=TWEET_FILTER_SELECTIVITY,
            event_bytes=TOPIC_EVENT_BYTES,
            cost=0.4,
        )
        topic_map = map_(
            f"topic-map@{site}", event_bytes=TOPIC_EVENT_BYTES, cost=0.25
        )
        branches.append(
            branch_from_ops(site, [src, flt, topic_map])
        )

    def partial_factory(name: str, members: frozenset[str]) -> OperatorSpec:
        return window_aggregate(
            name,
            window_s=30.0,
            selectivity=0.08,
            state_mb=4.0,
            keyed_by="(country, topic)",
            event_bytes=120.0,
            cost=1.0,
        )

    win_country = window_aggregate(
        "win-country",
        window_s=30.0,
        selectivity=0.02,
        state_mb=state_mb,
        keyed_by="(country, topic)",
        event_bytes=120.0,
        cost=0.9,
    )
    topk = top_k(
        "topk",
        k=10,
        window_s=30.0,
        state_mb=8.0,
        event_bytes=120.0,
        cost=0.5,
    )
    out = sink("sink")

    groupings = _continent_groupings([b.key for b in branches], homes)
    variants = aggregation_grouping_plans(
        "topk-topics",
        branches,
        groupings,
        partial_factory,
        [win_country, topk],
        out,
    )
    workload = TwitterWorkload(
        [f"tweets@{site}" for site in edges], rng, spec
    )
    return BenchmarkQuery(
        name="topk-topics",
        variants=tuple(variants),
        workload=workload,
        table3=Table3Row(
            application="Top-K Topics",
            state="~100 MB",
            operators=("filter", "map", "union", "window", "reduce"),
            dataset="Twitter trace (scaled)",
        ),
    )


# --------------------------------------------------------------------------- #
# 3. Events of Interest (stateless)
# --------------------------------------------------------------------------- #


def events_of_interest(
    topology: Topology, rng: np.random.Generator
) -> BenchmarkQuery:
    """Attribute filtering of tweets; fully stateless (Table 3 state 0 MB).

    Variants differ in where streams converge: a single global union versus
    per-continent relay unions - the stateless analogue of aggregation
    re-ordering, freely switchable by the re-planner.
    """
    edges = _edge_sites(topology)
    homes = _edge_home_regions(topology, edges)

    branches: list[Branch] = []
    for site in edges:
        src = source(f"tweets@{site}", site, event_bytes=TWEET_EVENT_BYTES)
        flt = filter_(
            f"interest-filter@{site}", selectivity=0.35, event_bytes=100.0,
            cost=0.4,
        )
        proj = project(f"project@{site}", event_bytes=80.0)
        branches.append(branch_from_ops(site, [src, flt, proj]))

    def relay_factory(name: str, members: frozenset[str]) -> OperatorSpec:
        return union(name, event_bytes=80.0)

    union_all = union("union-all", event_bytes=80.0)
    out = sink("sink")

    groupings = _continent_groupings([b.key for b in branches], homes)
    variants = aggregation_grouping_plans(
        "events-of-interest",
        branches,
        groupings,
        relay_factory,
        [union_all],
        out,
    )
    workload = TwitterWorkload([f"tweets@{site}" for site in edges], rng)
    return BenchmarkQuery(
        name="events-of-interest",
        variants=tuple(variants),
        workload=workload,
        table3=Table3Row(
            application="Events of Interest",
            state="0 MB",
            operators=("filter", "union", "project"),
            dataset="Twitter trace (scaled)",
        ),
    )


def all_queries(
    topology: Topology, rng: np.random.Generator
) -> list[BenchmarkQuery]:
    """The full Table-3 inventory against one topology."""
    return [
        ysb_advertising(topology),
        topk_topics(topology, rng),
        events_of_interest(topology, rng),
    ]
