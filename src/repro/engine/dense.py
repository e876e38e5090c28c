"""Dense numpy backend for the fluid-flow engine.

:class:`DenseEngineRuntime` executes the same tick semantics as
:class:`~repro.engine.runtime.EngineRuntime` but keeps all queue state in
age-bucketed structure-of-arrays form and runs
generate -> process -> route -> transfer as fused array operations:

* Every queue (``gen``/``input`` per ``(stage, site)``, ``net`` per flow)
  becomes one row of two ``(rows, B)`` float64 arrays: ``cnt[r, b]`` is the
  event count whose age falls in bucket ``b`` (one tick wide) and
  ``mass[r, b]`` is the summed ``count * gen_time`` of those events.  The
  pair preserves each bucket's exact mean generation time, so throughput
  accounting is exact and delay metrics are exact up to intra-bucket
  mixing (bounded by one tick per hop).
* A compiled :class:`_DenseModel` (keyed on plan identity + mutation
  version, like the reference `_PlanCache`) precomputes row selectors
  (a ``slice`` for every ascending run of row ids, so kernels work on
  views), routing fan-out indices, per-flow link/latency tables and
  FCFS link-sharing passes, so the per-tick Python work is O(stages),
  not O(queues) or O(parcels).  It also owns the scratch buffers the
  kernels write into: a tick allocates no ``(rows, buckets)``
  temporaries.
* The dict-of-FluidQueue representation remains the interchange format:
  arrays are synced out lazily whenever an inspection API or the mutation
  API (snapshot/restore, migration, ``replace_plan``, replay injection)
  needs parcel-level state, and synced back in before the next tick.
  Adaptations are rare; ticks are hot.

Equivalence vs the reference backend: per-tick processed totals, backlogs
and capacity are equal up to float associativity (queue *count* evolution
does not depend on intra-queue ordering), sink delays agree within the
bucket-mixing bound, and SLO (``Degrade``) drops may diverge slightly
because the reference drops by scanning parcels in *push* order while the
dense kernel drops whole age buckets by mean generation time.  Within the
dense backend results are bit-exact for a fixed seed.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..config import ENGINE_BACKENDS, WaspConfig
from ..errors import ConfigurationError, SimulationError, TopologyError
from ..network.topology import (
    LOCAL_BANDWIDTH_MBPS,
    Topology,
)
from .physical import PhysicalPlan
from .queues import FluidQueue
from .runtime import (
    MBIT_BYTES,
    EngineRuntime,
    TickReport,
    WorkloadModel,
    running_sum,
)

#: Queue totals below this are treated as drained (mirrors FluidQueue).
_DRAIN_EPS = 1e-12

#: ``engine_backend="auto"`` picks the dense backend for plans with at
#: least this many potential WAN flows (:func:`potential_wan_flows`).  On
#: bare shuffle worlds dense runs at 0.63x the reference at 63 flows,
#: about 1.0x at 99-143 and 1.38x at 255 (DESIGN.md section 7).
AUTO_DENSE_MIN_FLOWS = 128


def _rows(ids: list[int]) -> slice | np.ndarray:
    """Row selector for ``ids``: a ``slice`` when they form one ascending
    run, else an index array.

    numpy indexes both alike, but a slice yields views: kernels then update
    the rows in place, with no gather and no scatter back.
    """
    if ids and ids == list(range(ids[0], ids[0] + len(ids))):
        return slice(ids[0], ids[0] + len(ids))
    return np.array(ids, dtype=np.intp)


class _PopScratch:
    """Preallocated ``(rows, B)`` buffers of one :func:`_pop_rows` call
    site, reused every tick so the kernel allocates no large temporaries.
    ``c``/``m`` hold the gathered rows when the selector is an index array.
    """

    __slots__ = ("cum", "take_c", "take_m", "c", "m")

    def __init__(self, rows: slice | np.ndarray, n: int, B: int) -> None:
        self.cum = np.empty((n, B))
        self.take_c = np.empty((n, B))
        self.take_m = np.empty((n, B))
        gather = not isinstance(rows, slice)
        self.c = np.empty((n, B)) if gather else None
        self.m = np.empty((n, B)) if gather else None


def _pop_rows(
    cnt: np.ndarray,
    mass: np.ndarray,
    rows: slice | np.ndarray,
    caps: np.ndarray,
    sc: _PopScratch,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """FIFO-pop up to ``caps[i]`` events from each row, oldest bucket first.

    Mutates ``cnt``/``mass`` in place and returns ``(take_cnt, take_mass,
    popped_totals, totals_before)``; the first two and the last are views
    into ``sc``, valid until the same call site runs again.
    Fully-consumed buckets transfer their exact mass (``c/c == 1.0`` in
    IEEE arithmetic leaves a remainder of exactly 0); partially-consumed
    buckets split mass proportionally, i.e. at the bucket's mean generation
    time.
    """
    gathered = sc.c is not None
    if gathered:
        c = np.take(cnt, rows, axis=0, out=sc.c)
        m = np.take(mass, rows, axis=0, out=sc.m)
    else:
        c = cnt[rows]
        m = mass[rows]
    # cum[:, b]: events in bucket b and every older one, summed oldest
    # first (a cumsum over the reversed row, written back reversed).
    cum = sc.cum
    np.cumsum(c[:, ::-1], axis=1, out=cum[:, ::-1])
    # take[:, b] = min(max(cap - events older than b, 0), c[:, b]).
    take = sc.take_c
    np.subtract(caps[:, None], cum[:, 1:], out=take[:, :-1])
    take[:, -1] = caps
    np.maximum(take, 0.0, out=take)
    np.minimum(take, c, out=take)
    tm = sc.take_m
    np.maximum(c, 1e-300, out=tm)
    np.divide(take, tm, out=tm)
    np.multiply(m, tm, out=tm)
    np.subtract(c, take, out=c)
    np.subtract(m, tm, out=m)
    before = cum[:, 0]
    popped = np.minimum(caps, before)
    drained = before - popped < _DRAIN_EPS
    if drained.any():
        c[drained] = 0.0
        m[drained] = 0.0
    if gathered:
        cnt[rows] = c
        mass[rows] = m
    return take, tm, popped, before


def _drop_older_rows(
    cnt: np.ndarray,
    mass: np.ndarray,
    rows: np.ndarray,
    cutoff: float,
) -> np.ndarray:
    """Drop whole buckets whose mean generation time precedes ``cutoff``.

    Returns per-row dropped totals.  (The reference scans parcels in push
    order and stops at the first fresh one; with tick-wide buckets the
    mean-gen-time test agrees except when parcels of mixed ages were
    interleaved by transfers, which is what the differential tolerances
    absorb.)
    """
    c = cnt[rows]
    m = mass[rows]
    mask = (c > 0.0) & (m < cutoff * c)
    dropped = np.where(mask, c, 0.0).sum(axis=1)
    if mask.any():
        cnt[rows] = np.where(mask, 0.0, c)
        mass[rows] = np.where(mask, 0.0, m)
    return dropped


def _row_queues(
    cnt: np.ndarray, mass: np.ndarray, persistent: list[bool]
) -> list[FluidQueue | None]:
    """The queue each row materializes to, or ``None`` for an empty row
    that need not persist.

    A row's queue holds exactly what pushing its non-empty buckets, oldest
    first, at their mean generation times (``mass / count``) with
    :meth:`FluidQueue.push` would hold.  The columns are built directly;
    only a row with two neighbouring buckets inside push's merge window
    goes through ``push`` itself.
    """
    totals = cnt.sum(axis=1)
    live = totals > 0.0
    rc = cnt[live, ::-1]
    pos = rc > 0.0
    counts = rc[pos]
    gens = mass[live, ::-1][pos] / counts
    ends = np.cumsum(np.count_nonzero(pos, axis=1))
    # push adds each count to the queue total in turn.
    pushed = np.cumsum(np.where(pos, rc, 0.0), axis=1)[:, -1].tolist()
    live_rows = np.flatnonzero(live)
    close = np.abs(gens[:-1] - gens[1:]) < FluidQueue._MERGE_EPS
    close[ends[:-1] - 1] = False  # pairs straddling two rows
    merging = set(
        live_rows[
            np.searchsorted(ends, np.flatnonzero(close) + 1, side="right")
        ].tolist()
    )
    c_list = counts.tolist()
    g_list = gens.tolist()
    ends_l = ends.tolist()
    out: list[FluidQueue | None] = [None] * len(persistent)
    for row, a, b, total in zip(
        live_rows.tolist(), [0, *ends_l[:-1]], ends_l, pushed
    ):
        queue = FluidQueue()
        if row in merging:
            for c, g in zip(c_list[a:b], g_list[a:b]):
                queue.push(c, g)
        else:
            queue._counts = deque(c_list[a:b])
            queue._gens = deque(g_list[a:b])
            queue._count = total
        out[row] = queue
    for row, keep in enumerate(persistent):
        if keep and out[row] is None:
            out[row] = FluidQueue()
    return out


class _FlowPass:
    """One FCFS round of link sharing: at most one flow per link."""

    __slots__ = (
        "flow_keys", "flow_rows", "link_ids", "lat_s", "eb", "inv_eb",
        "dst_flat", "pop",
    )


class _DenseStage:
    """Per-stage metadata within a depth group (reporting + generation)."""

    __slots__ = (
        "name", "is_source", "is_sink", "selectivity", "pinned_site",
        "gen_row", "s0", "s1", "requeue_mult",
    )


class _DepthGroup:
    """All stages at one topological depth, fused into a single batch.

    Longest-path depths guarantee no edge connects two stages of the same
    group, so executing a whole group (pop -> route -> transfer) preserves
    the reference's sub-tick pipelining; the pass construction preserves
    its per-link FCFS budget order across the group's stages.
    """

    __slots__ = (
        "stages", "rows", "n_rows", "row_keys", "site_ids", "n_tasks",
        "cost_row", "sel_col", "mult_col", "has_requeue", "pop",
        "out_c", "out_m",
        "loc_src", "loc_frac", "loc_flat",
        "rem_src", "rem_frac", "rem_rows", "rem_c", "rem_m",
        "flow_rows_all", "n_flows", "flow_dst_all", "passes",
    )


class _DenseModel:
    """Structure-of-arrays compilation of one (plan, mutation version)
    over the topology's current link definitions (base capacities and
    latencies are compiled in, so a ``Topology.set_link`` recompiles).

    The row universe covers every queue the reference backend could touch
    during ticks at this plan version: placement read rows, every existing
    dict key (stale queues still roll and report backlog), each potential
    inter-site flow of a deployed edge and each flow's destination input
    row.  Anything else (new keys from adaptations) invalidates the model
    via the mutation API before the next tick.
    """

    __slots__ = (
        "plan", "version", "parallelism", "links_version", "B", "dt",
        "in_rows", "in_index", "in_persistent",
        "net_rows", "net_keys", "net_index", "net_persistent",
        "sites", "site_rate", "site_version", "links", "link_base",
        "link_local", "groups", "sources", "source_names", "n_in", "n_net",
    )

    def __init__(
        self,
        plan: PhysicalPlan,
        topology: Topology,
        gen_queue: dict,
        input_queue: dict,
        net_queue: dict,
        B: int,
        dt: float,
    ) -> None:
        self.plan = plan
        self.version = plan.mutation_version()
        self.parallelism = plan.total_parallelism()
        #: Link capacities and latencies are compiled in below.
        self.links_version = topology._links_version
        self.B = B
        self.dt = dt

        in_index: dict[tuple[str, str, str], int] = {}
        in_rows: list[tuple[str, str, str]] = []
        in_persistent: list[bool] = []

        def in_row(tag: str, stage: str, site: str, persist: bool = False) -> int:
            key = (tag, stage, site)
            row = in_index.get(key)
            if row is None:
                row = len(in_rows)
                in_index[key] = row
                in_rows.append(key)
                in_persistent.append(persist)
            elif persist:
                in_persistent[row] = True
            return row

        topo_stages = plan.topological_stages()
        placements = {s.name: s.placement() for s in topo_stages}
        read_tag = {
            s.name: ("gen" if s.is_source else "input") for s in topo_stages
        }

        # 1. Read rows: one per placement site in each stage's read table
        #    (the reference creates these queues eagerly every tick), plus
        #    the generation row at each source's pinned site.
        for s in topo_stages:
            tag = read_tag[s.name]
            for site in sorted(placements[s.name]):
                in_row(tag, s.name, site, persist=True)
            if s.is_source and s.pinned_site is not None:
                in_row("gen", s.name, s.pinned_site)

        # 2. Existing dict keys (includes queues for undeployed sites or
        #    stages outside the plan: they only roll and report backlog).
        for stage, site in sorted(gen_queue):
            in_row("gen", stage, site, persist=True)
        for stage, site in sorted(input_queue):
            in_row("input", stage, site, persist=True)

        # 3. Net rows: existing flows plus every potential flow a deployed
        #    edge can create by routing this plan version.
        net_index: dict[tuple[str, str, str, str], int] = {}
        net_rows: list[tuple[str, str, str, str]] = []
        net_persistent: list[bool] = []

        def net_row(key: tuple[str, str, str, str], persist: bool = False) -> int:
            row = net_index.get(key)
            if row is None:
                row = len(net_rows)
                net_index[key] = row
                net_rows.append(key)
                net_persistent.append(persist)
            elif persist:
                net_persistent[row] = True
            return row

        for key in sorted(net_queue):
            net_row(key, persist=True)
        downstream = {
            s.name: plan.downstream_stages(s.name) for s in topo_stages
        }
        for s in topo_stages:
            src_sites = sorted(placements[s.name])
            for down in downstream[s.name]:
                dplace = placements[down.name]
                if sum(dplace.values()) <= 0:
                    continue
                for src_site in src_sites:
                    for dst_site in sorted(dplace):
                        if dst_site != src_site:
                            net_row((s.name, down.name, src_site, dst_site))

        # 4. Flow destinations always land in the input table.
        for _src_st, dst_st, _su, sd in net_rows:
            in_row("input", dst_st, sd)

        self.in_rows = in_rows
        self.in_index = in_index
        self.in_persistent = in_persistent
        self.net_rows = net_rows
        #: The flow keys as an object array, for vectorized key selection.
        self.net_keys = np.fromiter(net_rows, dtype=object, count=len(net_rows))
        self.net_index = net_index
        self.net_persistent = net_persistent
        self.n_in = len(in_rows)
        self.n_net = len(net_rows)

        site_names = sorted(topology.site_names)
        site_id = {name: i for i, name in enumerate(site_names)}
        self.sites = [topology.site(name) for name in site_names]
        #: Per-slot rate of every site (0.0 while failed), valid for the
        #: topology's site-state version ``site_version``.
        self.site_rate = np.empty(len(self.sites))
        self.site_version = -1

        links: list[tuple[str, str]] = []
        link_index: dict[tuple[str, str], int] = {}
        link_base: list[float] = []
        link_local: list[bool] = []

        def link_id(su: str, sd: str) -> int:
            key = (su, sd)
            li = link_index.get(key)
            if li is None:
                li = len(links)
                link_index[key] = li
                links.append(key)
                if su == sd:
                    link_base.append(LOCAL_BANDWIDTH_MBPS)
                    link_local.append(True)
                else:
                    base = topology._base_bandwidth.get(key)
                    if base is None:
                        raise TopologyError(
                            f"no link defined from {su!r} to {sd!r}"
                        )
                    link_base.append(base)
                    link_local.append(False)
            return li

        flows_by_src: dict[str, list[tuple[str, str, str, str]]] = {}
        for key in net_rows:
            flows_by_src.setdefault(key[0], []).append(key)
        for keys in flows_by_src.values():
            keys.sort()

        bucket_idx = np.arange(B)

        # Depth grouping (longest path from a source): every stage at one
        # depth executes as one fused pop/route/transfer batch.
        depth = {s.name: 0 for s in topo_stages}
        for s in topo_stages:
            for down in downstream[s.name]:
                if depth[down.name] < depth[s.name] + 1:
                    depth[down.name] = depth[s.name] + 1
        by_depth: dict[int, list] = {}
        for s in topo_stages:
            by_depth.setdefault(depth[s.name], []).append(s)

        self.groups = []
        self.sources = []
        for d in sorted(by_depth):
            g = _DepthGroup()
            g.stages = []
            rows_l: list[int] = []
            row_keys: list[tuple[str, str]] = []
            site_ids_l: list[int] = []
            ntasks_l: list[float] = []
            cost_l: list[float] = []
            sel_l: list[float] = []
            mult_l: list[float] = []
            loc: list[tuple[int, int, float]] = []
            rem: list[tuple[int, int, float]] = []
            flows_group: list[tuple[tuple[str, str, str, str], float]] = []
            for s in by_depth[d]:
                st = _DenseStage()
                st.name = s.name
                st.is_source = s.is_source
                st.is_sink = s.is_sink
                st.selectivity = s.selectivity
                st.pinned_site = s.pinned_site
                tag = read_tag[s.name]
                sites_sorted = sorted(placements[s.name])
                st.s0 = len(rows_l)
                for site in sites_sorted:
                    rows_l.append(in_index[(tag, s.name, site)])
                    row_keys.append((s.name, site))
                    site_ids_l.append(site_id[site])
                    ntasks_l.append(float(placements[s.name][site]))
                    cost_l.append(s.cost)
                    sel_l.append(s.selectivity)
                st.s1 = len(rows_l)
                st.gen_row = (
                    in_index[("gen", s.name, s.pinned_site)]
                    if s.is_source and s.pinned_site is not None
                    else None
                )
                requeue_mult = 0
                for down in downstream[s.name]:
                    dplace = placements[down.name]
                    total = sum(dplace.values())
                    if total <= 0:
                        requeue_mult += 1
                        continue
                    for pos, src_site in enumerate(sites_sorted):
                        for dst_site in sorted(dplace):
                            frac = dplace[dst_site] / total
                            if dst_site == src_site:
                                loc.append((
                                    st.s0 + pos,
                                    in_index[("input", down.name, dst_site)],
                                    frac,
                                ))
                            else:
                                rem.append((
                                    st.s0 + pos,
                                    net_index[
                                        (s.name, down.name, src_site, dst_site)
                                    ],
                                    frac,
                                ))
                st.requeue_mult = requeue_mult
                mult_l.extend([float(requeue_mult)] * (st.s1 - st.s0))
                for key in flows_by_src.get(s.name, []):
                    flows_group.append((key, s.output_event_bytes))
                g.stages.append(st)
                if st.is_source:
                    if st.pinned_site is None:
                        raise SimulationError(
                            f"source stage {st.name!r} has no pinned site"
                        )
                    self.sources.append(st)

            g.rows = _rows(rows_l)
            g.n_rows = n = len(rows_l)
            g.pop = _PopScratch(g.rows, n, B)
            g.out_c = np.empty((n, B))
            g.out_m = np.empty((n, B))
            g.row_keys = row_keys
            g.site_ids = np.array(site_ids_l, dtype=np.intp)
            g.n_tasks = np.array(ntasks_l)
            g.cost_row = np.array(cost_l)
            g.sel_col = np.array(sel_l)[:, None]
            mult_arr = np.array(mult_l)
            g.has_requeue = bool((mult_arr > 0.0).any())
            g.mult_col = mult_arr[:, None]
            if loc:
                g.loc_src = np.array([p for p, _, _ in loc], dtype=np.intp)
                g.loc_frac = np.array([f for _, _, f in loc])[:, None]
                dst = np.array([r for _, r, _ in loc], dtype=np.intp)
                g.loc_flat = (dst[:, None] * B + bucket_idx).ravel()
            else:
                g.loc_src = None
                g.loc_frac = None
                g.loc_flat = None
            if rem:
                # Each flow key names its source stage and site, so remote
                # targets are unique rows: routing adds into them directly.
                g.rem_src = np.array([p for p, _, _ in rem], dtype=np.intp)
                g.rem_frac = np.array([f for _, _, f in rem])[:, None]
                g.rem_rows = _rows([r for _, r, _ in rem])
                g.rem_c = np.empty((len(rem), B))
                g.rem_m = np.empty((len(rem), B))
            else:
                g.rem_src = None
                g.rem_frac = None
                g.rem_rows = None
                g.rem_c = None
                g.rem_m = None

            # FCFS passes over the group's flows in stage-major, key-sorted
            # order - exactly the order in which the reference backend
            # consumes shared link budgets.
            per_link_pos: dict[int, int] = {}
            grouped: list[
                list[tuple[tuple[str, str, str, str], int, float]]
            ] = []
            for key, eb in flows_group:
                li = link_id(key[2], key[3])
                pos = per_link_pos.get(li, 0)
                per_link_pos[li] = pos + 1
                if pos == len(grouped):
                    grouped.append([])
                grouped[pos].append((key, li, eb))
            g.flow_rows_all = _rows([net_index[k] for k, _ in flows_group])
            g.n_flows = len(flows_group)
            g.flow_dst_all = [k[1] for k, _ in flows_group]
            g.passes = []
            for entries in grouped:
                ps = _FlowPass()
                ps.flow_keys = [k for k, _, _ in entries]
                ps.flow_rows = _rows([net_index[k] for k, _, _ in entries])
                ps.pop = _PopScratch(ps.flow_rows, len(entries), B)
                ps.link_ids = np.array(
                    [li for _, li, _ in entries], dtype=np.intp
                )
                lat = np.array([
                    topology.latency_ms(k[2], k[3]) / 1000.0
                    for k, _, _ in entries
                ])
                ps.lat_s = lat[:, None]
                eb_arr = np.array([e for _, _, e in entries])
                ps.eb = eb_arr
                ps.inv_eb = 1.0 / eb_arr
                dst_rows = np.array(
                    [in_index[("input", k[1], k[3])] for k, _, _ in entries],
                    dtype=np.intp,
                )
                shift = np.floor(lat / dt + 0.5).astype(np.intp)[:, None]
                shifted = np.minimum(bucket_idx[None, :] + shift, B - 1)
                ps.dst_flat = (dst_rows[:, None] * B + shifted).ravel()
                g.passes.append(ps)

            self.groups.append(g)
        self.links = links
        self.link_base = np.array(link_base) if links else np.empty(0)
        self.link_local = link_local
        self.source_names = tuple(st.name for st in self.sources)

    def site_rates(self, site_version: int) -> np.ndarray:
        """The ``site_rate`` vector, re-read from the sites only when
        the topology's site-state version moved."""
        if self.site_version != site_version:
            self.site_rate[:] = [
                0.0 if s.failed else s.effective_proc_rate_eps
                for s in self.sites
            ]
            self.site_version = site_version
        return self.site_rate


class DenseEngineRuntime(EngineRuntime):
    """Engine runtime executing ticks on the dense SoA representation.

    Drop-in replacement for :class:`EngineRuntime`: the mutation and
    inspection APIs operate on the dict-of-FluidQueue state (synced out on
    demand), while :meth:`tick` runs entirely on arrays.
    """

    def __init__(
        self,
        topology: Topology,
        plan: PhysicalPlan,
        workload: WorkloadModel,
        config: WaspConfig | None = None,
        *,
        degrade_slo_s: float | None = None,
    ) -> None:
        super().__init__(
            topology, plan, workload, config, degrade_slo_s=degrade_slo_s
        )
        self._B = int(self._config.dense_age_buckets)
        self._model: _DenseModel | None = None
        self._in_cnt: np.ndarray | None = None
        self._in_mass: np.ndarray | None = None
        self._net_cnt: np.ndarray | None = None
        self._net_mass: np.ndarray | None = None
        self._in_cnt_sc: np.ndarray | None = None
        self._in_mass_sc: np.ndarray | None = None
        self._net_cnt_sc: np.ndarray | None = None
        self._net_mass_sc: np.ndarray | None = None
        #: True while the arrays hold the authoritative queue state.
        self._arrays_live = False
        #: True while the dict queues mirror the arrays (or are themselves
        #: authoritative).
        self._dicts_fresh = True
        #: Cached per-tick link budget base ``base * factor * bytes``; keyed
        #: on (model identity, topology factors version).
        self._lb_cache: tuple[_DenseModel, int, np.ndarray] | None = None

    # ----------------------------- sync ------------------------------- #

    def _ensure_model(self) -> _DenseModel:
        plan = self._plan
        model = self._model
        if (
            model is None
            or model.plan is not plan
            or model.version != plan.mutation_version()
            or model.links_version != self._topology._links_version
        ):
            if self._arrays_live and not self._dicts_fresh:
                self._sync_out()
            model = _DenseModel(
                plan,
                self._topology,
                self._gen_queue,
                self._input_queue,
                self._net_queue,
                self._B,
                self._config.tick_s,
            )
            self._model = model
            self._sync_in(model)
        elif not self._arrays_live:
            self._sync_in(model)
        return model

    def _sync_in(self, model: _DenseModel) -> None:
        """Load the dict queues into fresh arrays (dicts stay valid)."""
        B = model.B
        dt = model.dt
        now = self._now_s
        self._in_cnt = np.zeros((model.n_in, B))
        self._in_mass = np.zeros((model.n_in, B))
        self._net_cnt = np.zeros((model.n_net, B))
        self._net_mass = np.zeros((model.n_net, B))
        self._in_cnt_sc = np.empty_like(self._in_cnt)
        self._in_mass_sc = np.empty_like(self._in_mass)
        self._net_cnt_sc = np.empty_like(self._net_cnt)
        self._net_mass_sc = np.empty_like(self._net_mass)
        for i, (tag, stage, site) in enumerate(model.in_rows):
            table = self._gen_queue if tag == "gen" else self._input_queue
            queue = table.get((stage, site))
            if queue is None or not queue:
                continue
            crow = self._in_cnt[i]
            mrow = self._in_mass[i]
            for p in queue.parcels():
                b = int((now - p.gen_time_s) / dt)
                if b < 0:
                    b = 0
                elif b >= B:
                    b = B - 1
                crow[b] += p.count
                mrow[b] += p.count * p.gen_time_s
        for i, key in enumerate(model.net_rows):
            queue = self._net_queue.get(key)
            if queue is None or not queue:
                continue
            crow = self._net_cnt[i]
            mrow = self._net_mass[i]
            for p in queue.parcels():
                b = int((now - p.gen_time_s) / dt)
                if b < 0:
                    b = 0
                elif b >= B:
                    b = B - 1
                crow[b] += p.count
                mrow[b] += p.count * p.gen_time_s
        self._arrays_live = True
        self._dicts_fresh = True

    def _sync_out(self) -> None:
        """Materialize the arrays back into dict queues (arrays stay valid).

        Rows are materialized when non-empty or *persistent* (placement
        read rows and keys that already existed at compile time), which
        keeps the dict key set deterministic within the dense backend.
        Parcels are emitted oldest bucket first at each bucket's mean
        generation time.
        """
        model = self._model
        assert model is not None
        new_gen: dict[tuple[str, str], FluidQueue] = {}
        new_inp: dict[tuple[str, str], FluidQueue] = {}
        queues = _row_queues(self._in_cnt, self._in_mass, model.in_persistent)
        for (tag, stage, site), queue in zip(model.in_rows, queues):
            if queue is not None:
                table = new_gen if tag == "gen" else new_inp
                table[(stage, site)] = queue
        queues = _row_queues(
            self._net_cnt, self._net_mass, model.net_persistent
        )
        self._gen_queue = new_gen
        self._input_queue = new_inp
        self._net_queue = {
            key: queue
            for key, queue in zip(model.net_rows, queues)
            if queue is not None
        }
        self._rebuild_net_index()
        self._dicts_fresh = True

    def _ensure_dicts(self) -> None:
        if self._arrays_live and not self._dicts_fresh:
            self._sync_out()

    def _invalidate(self) -> None:
        """Hand authority back to the dicts before a queue mutation."""
        self._ensure_dicts()
        self._arrays_live = False
        self._dicts_fresh = True
        self._model = None

    def _roll(self) -> None:
        """Age every bucket by one tick (the oldest bucket accumulates)."""
        B = self._B
        for attr, scr in (
            ("_in_cnt", "_in_cnt_sc"),
            ("_in_mass", "_in_mass_sc"),
            ("_net_cnt", "_net_cnt_sc"),
            ("_net_mass", "_net_mass_sc"),
        ):
            cur = getattr(self, attr)
            nxt = getattr(self, scr)
            nxt[:, 0] = 0.0
            nxt[:, 1 : B - 1] = cur[:, 0 : B - 2]
            nxt[:, B - 1] = cur[:, B - 1] + cur[:, B - 2]
            setattr(self, attr, nxt)
            setattr(self, scr, cur)

    # ------------------------- inspection API -------------------------- #

    def input_backlog(self, stage_name: str, site: str | None = None) -> float:
        self._ensure_dicts()
        return super().input_backlog(stage_name, site)

    def net_backlog_for(self, dst_stage: str) -> dict[tuple[str, str], float]:
        self._ensure_dicts()
        return super().net_backlog_for(dst_stage)

    def total_backlog(self) -> float:
        self._ensure_dicts()
        return super().total_backlog()

    def iter_queues(self):
        self._ensure_dicts()
        yield from super().iter_queues()

    def mutation_snapshot(self):
        self._ensure_dicts()
        return super().mutation_snapshot()

    # -------------------------- mutation API --------------------------- #

    def move_task_queue(self, stage_name, from_site, to_site):
        self._invalidate()
        super().move_task_queue(stage_name, from_site, to_site)

    def redirect_flows(self, stage_name, from_site, to_site):
        self._invalidate()
        super().redirect_flows(stage_name, from_site, to_site)

    def relay_queue(self, stage_name, from_site, to_site):
        self._invalidate()
        super().relay_queue(stage_name, from_site, to_site)

    def rehome_to_placement(self, stage_name, bandwidth_rank=None):
        self._invalidate()
        super().rehome_to_placement(stage_name, bandwidth_rank)

    def inject_replay(self, stage_name, site, events, gen_time_s):
        self._invalidate()
        super().inject_replay(stage_name, site, events, gen_time_s)

    def restore_mutation_snapshot(self, snapshot):
        # The restore overwrites the dict state wholesale; the current
        # array contents are irrelevant and must not be synced out first.
        self._arrays_live = False
        self._dicts_fresh = True
        self._model = None
        super().restore_mutation_snapshot(snapshot)

    def replace_plan(self, new_plan):
        self._invalidate()
        super().replace_plan(new_plan)

    # ------------------------------ tick ------------------------------- #

    def tick(
        self, link_budget: dict[tuple[str, str], float] | None = None
    ) -> TickReport:
        dt = self._config.tick_s
        now = self._now_s + dt
        report = TickReport(t_s=now)
        # A caller-owned budget dict is shared with other runtimes: read it
        # and write the consumed budgets back.  Otherwise it is private.
        shared = link_budget is not None

        model = self._ensure_model()
        B = model.B
        self._roll()
        in_cnt = self._in_cnt
        in_mass = self._in_mass
        net_cnt = self._net_cnt
        net_mass = self._net_mass
        in_cnt_f = in_cnt.reshape(-1)
        in_mass_f = in_mass.reshape(-1)
        in_size = in_cnt_f.shape[0]

        # Environment reads: site health/rates (versioned) and link budgets.
        site_rate = model.site_rates(self._topology._site_states.value)
        n_links = len(model.links)
        if n_links:
            fver = self._topology._factors_version
            cache = self._lb_cache
            if cache is None or cache[0] is not model or cache[1] != fver:
                factors = self._topology._factors
                gfac = self._topology._global_factor
                fac = np.fromiter(
                    (
                        1.0 if local else factors.get(link, gfac)
                        for link, local in zip(model.links, model.link_local)
                    ),
                    dtype=np.float64,
                    count=n_links,
                )
                lb_base = model.link_base * fac * (MBIT_BYTES * dt)
                self._lb_cache = (model, fver, lb_base)
            else:
                lb_base = cache[2]
            lb = lb_base.copy()
            touched = np.zeros(n_links, dtype=bool) if shared else None
            if link_budget:
                for i, link in enumerate(model.links):
                    existing = link_budget.get(link)
                    if existing is not None:
                        lb[i] = existing
        else:
            lb = None
            touched = None

        # The metric window's running sums, if a monitor bound them; each
        # is added where the report entry is written, in the same order.
        window = self._window
        if window is not None:
            source_gen = window.source_gen
            capacity_sums = window.capacity
            processed_sums = window.processed
            net_in = window.net_in
        else:
            source_gen = capacity_sums = processed_sums = net_in = None

        # 1. External generation (mean age dt/2 -> bucket 0).
        mean_gen = now - dt * 0.5
        offered = 0.0
        offered_by_source = report.offered_by_source
        rates = self._workload.generation_rates(model.source_names, now)
        for st, rate in zip(model.sources, rates):
            gen = rate * dt
            if gen > 0.0:
                flat = st.gen_row * B
                in_cnt_f[flat] += gen
                in_mass_f[flat] += gen * mean_gen
            offered += gen
            offered_by_source[st.name] = gen
            if source_gen is not None:
                running_sum(source_gen, st.name).value += gen
        report.offered = offered

        # 2. Stage execution + transfers in topological order (sub-tick
        # pipelining, like the reference).
        slo = self._degrade_slo_s
        cutoff = (now - slo) if slo is not None else None
        prev_now = self._now_s
        suspended_until = self._suspended_until
        net_sent = report.net_sent

        for g in model.groups:
            rows = g.rows
            if g.n_rows:
                if cutoff is not None:
                    dropped = _drop_older_rows(in_cnt, in_mass, rows, cutoff)
                    if dropped.any():
                        dlist = dropped.tolist()
                        for st in g.stages:
                            # Built-in sum() is left-to-right, the
                            # reference's per-site order, only up to CPython
                            # 3.11 (where the digests are pinned); from 3.12
                            # on it is compensated.
                            dv = sum(dlist[st.s0:st.s1])
                            if dv > 0.0:
                                report.dropped_source_equiv += (
                                    self._to_source_equiv(st.name, dv)
                                )
                                report.dropped_raw_input[st.name] = (
                                    report.dropped_raw_input.get(st.name, 0.0)
                                    + dv
                                )
                caps = g.n_tasks * site_rate[g.site_ids] / g.cost_row * dt
                if suspended_until:
                    for st in g.stages:
                        if prev_now < suspended_until.get(st.name, 0.0):
                            caps[st.s0:st.s1] = 0.0
                take_c, take_m, popped, _ = _pop_rows(
                    in_cnt, in_mass, rows, caps, g.pop
                )
                if capacity_sums is not None:
                    for (stage, site), cap in zip(g.row_keys, caps.tolist()):
                        by_site = capacity_sums.setdefault(stage, {})
                        running_sum(by_site, site).value += cap
                plist = popped.tolist()
                any_routed = False
                for st in g.stages:
                    # Left-to-right over the stage's sites, like the
                    # reference's per-site accumulation.
                    stage_processed = 0.0
                    for proc in plist[st.s0:st.s1]:
                        if proc > 0.0:
                            stage_processed += proc
                    if stage_processed <= 0.0:
                        continue
                    report.processed[st.name] = stage_processed
                    if processed_sums is not None:
                        running_sum(processed_sums, st.name).value += (
                            stage_processed
                        )
                    sel = st.selectivity
                    if st.is_sink:
                        tc = float(take_c[st.s0:st.s1].sum())
                        tm = float(take_m[st.s0:st.s1].sum())
                        report.sink_events += sel * tc
                        report.sink_delay_weighted_s += sel * (now * tc - tm)
                    else:
                        report.emitted[st.name] = sel * stage_processed
                        any_routed = True
                        if st.requeue_mult and sel != 0.0:
                            report.requeued[st.name] = (
                                report.requeued.get(st.name, 0.0)
                                + st.requeue_mult * sel * stage_processed
                            )
                if any_routed:
                    # Fan-out for the whole group at once: rows belonging
                    # to sinks or sel == 0 stages contribute exact zeros.
                    out_c = np.multiply(take_c, g.sel_col, out=g.out_c)
                    out_m = np.multiply(take_m, g.sel_col, out=g.out_m)
                    if g.has_requeue:
                        in_cnt[rows] += out_c * g.mult_col
                        in_mass[rows] += out_m * g.mult_col
                    if g.loc_src is not None:
                        in_cnt_f += np.bincount(
                            g.loc_flat,
                            weights=(out_c[g.loc_src] * g.loc_frac).ravel(),
                            minlength=in_size,
                        )
                        in_mass_f += np.bincount(
                            g.loc_flat,
                            weights=(out_m[g.loc_src] * g.loc_frac).ravel(),
                            minlength=in_size,
                        )
                    if g.rem_src is not None:
                        rc = np.take(out_c, g.rem_src, axis=0, out=g.rem_c)
                        rm = np.take(out_m, g.rem_src, axis=0, out=g.rem_m)
                        net_cnt[g.rem_rows] += np.multiply(
                            rc, g.rem_frac, out=rc
                        )
                        net_mass[g.rem_rows] += np.multiply(
                            rm, g.rem_frac, out=rm
                        )

            # --- transfers of this group's outgoing flows --------------- #
            if not g.passes:
                continue
            if cutoff is not None and g.n_flows:
                fdropped = _drop_older_rows(
                    net_cnt, net_mass, g.flow_rows_all, cutoff
                )
                if fdropped.any():
                    for dst_stage, dv in zip(
                        g.flow_dst_all, fdropped.tolist()
                    ):
                        if dv > 0.0:
                            report.dropped_source_equiv += (
                                self._to_source_equiv(dst_stage, dv)
                            )
                            report.dropped_raw_net[dst_stage] = (
                                report.dropped_raw_net.get(dst_stage, 0.0)
                                + dv
                            )
            for ps in g.passes:
                caps = np.maximum(lb[ps.link_ids] * ps.inv_eb, 0.0)
                take_c, take_m, moved, before = _pop_rows(
                    net_cnt, net_mass, ps.flow_rows, caps, ps.pop
                )
                nonempty = before > 0.0
                if not nonempty.any():
                    continue
                if shared:
                    touched[ps.link_ids[nonempty]] = True
                lb[ps.link_ids] -= moved * ps.eb
                # Aging by link latency: the destination mass is
                # sum(c * (gen - latency)); the bucket shift in dst_flat
                # is the rounded equivalent for ordering purposes.  The
                # pop's cum buffer is free again and holds the product.
                take_m -= np.multiply(ps.lat_s, take_c, out=ps.pop.cum)
                in_cnt_f += np.bincount(
                    ps.dst_flat, weights=take_c.ravel(), minlength=in_size
                )
                in_mass_f += np.bincount(
                    ps.dst_flat, weights=take_m.ravel(), minlength=in_size
                )
                # Each flow key appears in exactly one pass, so a plain
                # assignment per key accumulates correctly across the tick.
                mv_list = moved.tolist()
                if (moved > 0.0).all():
                    net_sent.update(zip(ps.flow_keys, mv_list))
                else:
                    net_sent.update(
                        (key, mv)
                        for key, mv in zip(ps.flow_keys, mv_list)
                        if mv > 0.0
                    )
                if net_in is not None:
                    # Inflow key: (dst stage, src site, dst site).
                    for key, mv in zip(ps.flow_keys, mv_list):
                        if mv > 0.0:
                            running_sum(net_in, key[1:]).value += mv

        # 3. End-of-tick backlogs.
        in_tot = in_cnt.sum(axis=1)
        nz = np.nonzero(in_tot > 0.0)[0]
        if nz.size:
            input_backlog = report.input_backlog
            vals = in_tot[nz].tolist()
            for i, v in zip(nz.tolist(), vals):
                _tag, stage, site = model.in_rows[i]
                key = (stage, site)
                input_backlog[key] = input_backlog.get(key, 0.0) + v
        net_tot = net_cnt.sum(axis=1)
        nz = np.flatnonzero(net_tot > 0.0)
        if nz.size:
            report.net_backlog.update(
                zip(model.net_keys[nz].tolist(), net_tot[nz].tolist())
            )

        # Write back consumed link budgets (shared-contention contract).
        if touched is not None and touched.any():
            lb_list = lb.tolist()
            for i in np.nonzero(touched)[0].tolist():
                link_budget[model.links[i]] = lb_list[i]

        report.parallelism = model.parallelism
        if window is not None:
            window.offered += offered
            window.sink_events += report.sink_events
            window.delay_weight += report.sink_delay_weighted_s
        self._now_s = now
        self.last_report = report
        self._arrays_live = True
        self._dicts_fresh = False
        return report


def potential_wan_flows(plan: PhysicalPlan) -> int:
    """Inter-site flows the plan's stage edges can carry: the sum over
    every edge of ``|P_src| * |P_dst| - |P_src & P_dst|``, where ``P`` is
    a stage's set of placement sites."""
    sites = {s.name: s.placement().keys() for s in plan.topological_stages()}
    flows = 0
    for name, src in sites.items():
        for down in plan.downstream_stages(name):
            dst = sites[down.name]
            flows += len(src) * len(dst) - len(src & dst)
    return flows


def resolve_backend(plan: PhysicalPlan, backend: str) -> str:
    """The backend ``backend`` names for ``plan``: ``"auto"`` becomes
    ``"dense"`` when the plan has at least :data:`AUTO_DENSE_MIN_FLOWS`
    potential WAN flows and ``"reference"`` otherwise."""
    if backend == "auto":
        if potential_wan_flows(plan) >= AUTO_DENSE_MIN_FLOWS:
            return "dense"
        return "reference"
    if backend not in ENGINE_BACKENDS:
        raise ConfigurationError(
            f"unknown engine backend {backend!r} (expected one of "
            f"{ENGINE_BACKENDS})"
        )
    return backend


def create_runtime(
    topology: Topology,
    plan: PhysicalPlan,
    workload: WorkloadModel,
    config: WaspConfig | None = None,
    *,
    degrade_slo_s: float | None = None,
    backend: str | None = None,
) -> EngineRuntime:
    """Build an engine runtime for the configured backend.

    ``backend`` overrides ``config.engine_backend`` when given.  ``"auto"``
    is resolved here, once, from the initial plan; later adaptations keep
    the runtime they started on.
    """
    cfg = config or WaspConfig.paper_defaults()
    name = resolve_backend(plan, backend or cfg.engine_backend)
    runtime = DenseEngineRuntime if name == "dense" else EngineRuntime
    return runtime(topology, plan, workload, cfg, degrade_slo_s=degrade_slo_s)
