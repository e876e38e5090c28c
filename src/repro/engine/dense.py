"""Dense numpy backend for the fluid-flow engine.

:class:`DenseEngineRuntime` executes the same tick semantics as
:class:`~repro.engine.runtime.EngineRuntime` but keeps all queue state in
age-bucketed structure-of-arrays form and runs
generate -> process -> route -> transfer as fused array operations:

* Every queue (``input`` per ``(stage, site)``, ``net`` per flow)
  becomes one column of two bucket-major ``(B, rows)`` float64 arrays:
  ``cnt[b, r]`` is the event count of row ``r`` whose age falls in bucket
  ``b`` (one tick wide) and ``mass[b, r]`` is the summed
  ``count * gen_time`` of those events.  The pair preserves each bucket's
  exact mean generation time, so throughput accounting is exact and delay
  metrics are exact up to intra-bucket mixing (bounded by one tick per
  hop).  Each bucket is one contiguous row over all queues, so a
  per-bucket step runs as a few long array loops, not one short loop per
  queue.
* A compiled :class:`_DenseModel` (keyed on plan identity + mutation
  version, like the reference `_PlanCache`) precomputes row selectors
  (a ``slice`` for every ascending run of row ids, so kernels work on
  views), routing fan-out indices, per-flow link/latency tables and
  FCFS link-sharing passes, so the per-tick Python work is O(stages),
  not O(queues) or O(parcels).  It also owns the scratch buffers the
  kernels write into: a tick allocates no ``(buckets, rows)``
  temporaries.
* Work follows the events that move.  One pop kernel (:func:`_pop_rows`)
  serves stage execution and WAN transfer alike: it computes each cell's
  take over the full ``(B, rows)`` block (the events in older buckets as
  B - 1 contiguous row adds at a long pop site, one accumulate at a
  short one), then splits mass, subtracts and returns only the cells
  that send, bucket by bucket.  A WAN pass ages and scatters just those cells
  (:func:`_deliver`); a pass that shifts a flow by its latency pops in
  flow order instead, so that every destination cell sums its terms flow
  by flow.  A group's fan-out covers only the buckets it popped from
  (:func:`_fan_out`; a source that keeps up pops its fresh bucket 0
  alone); the per-tick roll is one block copy plus two row fix-ups
  (:func:`_roll_into`); per-row totals fold in numpy's own order for a
  16-wide row (:func:`_row_totals`).
  The skipped cells would only contribute exact zeros, and every sum
  keeps the order of the row-major kernels before, so the output is
  bit-identical to them.  On the 64-site shuffle the sparse kernels took
  perfbench's ``step_ms.p50`` from 3.14 to 2.20 ms on a 2-vCPU VM, and the
  bucket-major layout from 1.32 to 0.97 ms; DESIGN.md section 7, "Dense
  tick kernels", has the per-phase figures.
* The per-flow report fields are arrays, not dicts: ``TickReport.net_sent``
  and ``net_backlog`` are read-only :class:`FlowTable` mappings over the
  model's flow keys and one fresh value array each.  Readers that sum
  ``values()`` (the benchmark, the digest) never hash a key, and a lookup
  builds the key dict once per table.  On the 64-site shuffle the two
  4032-entry dict fills had taken about a quarter of the tick; the tables
  took perfbench's ``step_ms.p50`` from 1.95 to 1.29 ms (DESIGN.md
  section 7, "Flow tables").
* The dict-of-FluidQueue representation remains the interchange format:
  arrays are synced out lazily whenever an inspection API or the mutation
  API (snapshot/restore, ``rehome``, ``replace_plan``, replay injection)
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
from collections.abc import Iterator, Mapping

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
    TICK_S,
    EngineRuntime,
    TickReport,
    WorkloadModel,
    running_sum,
)

#: Queue totals below this are treated as drained (mirrors FluidQueue).
_DRAIN_EPS = 1e-12

#: ``engine_backend="auto"`` picks the dense backend for plans with at
#: least this many potential WAN flows (:func:`potential_wan_flows`).  The
#: measured crossover behind it is recorded in DESIGN.md section 7,
#: "Backends".
AUTO_DENSE_MIN_FLOWS = 128

#: Age resolution of the bucketed queues: each queue keeps this many
#: tick-wide age buckets; events older than the window collapse into the
#: last bucket (their exact mean generation time is preserved, so delay
#: metrics stay exact).
AGE_BUCKETS = 16


def _rows(ids: list[int]) -> slice | np.ndarray:
    """Row selector for ``ids``: a ``slice`` when they form one ascending
    run, else an index array.

    numpy indexes both alike, but a slice yields views: kernels then update
    the rows in place, with no gather and no scatter back.
    """
    if ids and ids == list(range(ids[0], ids[0] + len(ids))):
        return slice(ids[0], ids[0] + len(ids))
    return np.array(ids, dtype=np.intp)


#: Pop sites with at least this many rows are *long*: they sum the older
#: buckets as B - 1 contiguous row adds and zero drained rows by a mask
#: multiply.  Shorter ones take one ``np.add.accumulate`` over the bucket
#: axis (the sequential sum ``np.cumsum`` runs, without its wrapper's
#: cost) and a boolean column write, whose fewer numpy calls cost less
#: there.  Both ways give the same bits.  The measured crossover is in
#: DESIGN.md section 7, "Dense tick kernels".
_LONG_POP_ROWS = 256


class _PopScratch:
    """Preallocated ``(B, rows)`` buffers of one :func:`_pop_rows` call
    site, reused every tick so the kernel allocates no large temporaries.

    ``c`` holds the gathered counts when the selector is an index array
    (``None`` for a slice: the kernel works on views).  ``cells`` maps the
    selection's flat cells into the flat ``(B, width)`` arrays, ``None``
    when the selection is every row.  With ``dense_mass`` the kernel also
    writes the taken mass into ``tm``, zero off the sending cells, for
    callers that read it per bucket.  ``flow_order`` makes the kernel list
    the sending cells flow by flow (see :func:`_deliver`), and ``long``
    picks the kernel's steps for :data:`_LONG_POP_ROWS` rows or more.
    """

    __slots__ = ("cum", "take", "sends", "c", "cells", "tm", "long",
                 "flow_order")

    def __init__(
        self,
        rows: slice | np.ndarray,
        n: int,
        B: int,
        width: int,
        dense_mass: bool = False,
        flow_order: bool = False,
    ) -> None:
        self.cum = np.empty((B, n))
        self.take = np.empty((B, n))
        self.sends = np.empty((B, n), dtype=bool)
        view = isinstance(rows, slice)
        self.c = None if view else np.empty((B, n))
        if view and rows == slice(0, width):
            self.cells = None
        else:
            ids = np.arange(width)[rows]
            self.cells = (np.arange(B)[:, None] * width + ids).ravel()
        self.tm = np.empty((B, n)) if dense_mass else None
        self.long = n >= _LONG_POP_ROWS
        self.flow_order = flow_order


def _pop_rows(
    cnt: np.ndarray,
    mass: np.ndarray,
    rows: slice | np.ndarray,
    caps: np.ndarray,
    sc: _PopScratch,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """FIFO-pop up to ``caps[i]`` events from each row, oldest bucket first.

    Mutates ``cnt``/``mass`` in place and returns ``(idx, take_cnt,
    take_mass, popped_totals, totals_before)``.  ``idx`` lists the flat
    ``(bucket, row)`` cells of the selection that send events, bucket by
    bucket (flow by flow with ``sc.flow_order``); ``take_cnt``/``take_mass``
    are what each of them sends.  With a dense mass buffer ``sc.tm``, the
    dense take (zero off ``idx``) stays in ``sc.take`` and its mass in
    ``sc.tm``; ``totals_before`` is a view of ``sc.cum``.  All are valid
    until the same call site runs again.

    Fully-consumed buckets transfer their exact mass (``c/c == 1.0`` in
    IEEE arithmetic leaves a remainder of exactly 0); partially-consumed
    buckets split mass proportionally, i.e. at the bucket's mean generation
    time.  Cells off ``idx`` are left untouched, except that a long pop that
    drains a row writes a -0.0 mass as +0.0.  A split over every cell would
    compute ``m - m * 0`` there, which leaves ``m`` as it was except a mass
    of -0.0, which it writes as +0.0; the engine never holds a -0.0 mass
    (``tests/engine/test_dense_backend.py`` checks this at every pop).
    """
    if sc.c is not None:
        c = np.take(cnt, rows, axis=1, out=sc.c)
    else:
        c = cnt[:, rows]
    # cum[b]: events in bucket b and every older one, summed oldest first.
    cum = sc.cum
    if sc.long:
        np.copyto(cum[-1], c[-1])
        for b in range(cum.shape[0] - 2, -1, -1):
            np.add(cum[b + 1], c[b], out=cum[b])
    else:
        np.add.accumulate(c[::-1], axis=0, out=cum[::-1])
    # take[b] = min(max(cap - events older than b, 0), c[b]).  Without a
    # dense mass buffer nothing reads the take off the sending cells, and
    # min(cap - older, c) is positive on exactly those cells, with the same
    # value: the clamp at 0 is skipped there.
    take = sc.take
    np.subtract(caps, cum[1:], out=take[:-1])
    take[-1] = caps
    if sc.tm is not None:
        np.maximum(take, 0.0, out=take)
    np.minimum(take, c, out=take)
    # Only the sending cells take part in the split from here on.
    sends = np.greater(take, 0.0, out=sc.sends)
    if sc.flow_order:
        flow, bucket = sends.T.nonzero()
        idx = bucket * sends.shape[1] + flow
    else:
        idx = sends.reshape(-1).nonzero()[0]
    cells = idx if sc.cells is None else sc.cells[idx]
    cnt_f = cnt.reshape(-1)
    mass_f = mass.reshape(-1)
    tc = take.reshape(-1)[idx]
    ci = cnt_f[cells]
    mi = mass_f[cells]
    tm = np.maximum(ci, 1e-300)
    np.divide(tc, tm, out=tm)
    np.multiply(mi, tm, out=tm)
    cnt_f[cells] = np.subtract(ci, tc, out=ci)
    mass_f[cells] = np.subtract(mi, tm, out=mi)
    if sc.tm is not None:
        sc.tm.fill(0.0)
        sc.tm.reshape(-1)[idx] = tm
    before = cum[0]
    popped = np.minimum(caps, before)
    drained = before - popped < _DRAIN_EPS
    if drained.any():
        if sc.c is not None:
            cols = rows[drained]
            cnt[:, cols] = 0.0
            mass[:, cols] = 0.0
        elif sc.long:
            # A mask multiply beats a masked write on long rows.  The add
            # turns the -0.0 that a negative mass times 0 gives into +0.0
            # (and would do so to a -0.0 mass kept elsewhere, which the
            # engine never holds).
            keep = np.logical_not(drained)
            c *= keep
            m = mass[:, rows]
            m *= keep
            m += 0.0
        else:
            c[:, drained] = 0.0
            mass[:, rows][:, drained] = 0.0
    return idx, tc, tm, popped, before


def _row_totals(a: np.ndarray) -> np.ndarray:
    """Per-row totals of a bucket-major ``(16, rows)`` array, summed in the
    order numpy sums a 16-wide row: eight lanes ``a[j] + a[j + 8]``, then a
    pairwise tree.  Bit-equal to ``a.T.sum(axis=1)`` on a row-major copy
    (``tests/engine/test_dense_backend.py`` pins it), except that a row of
    -0.0 sums to -0.0 where numpy gives +0.0; the engine's counts never
    hold -0.0."""
    if a.shape[0] != 16:
        raise ValueError(f"_row_totals folds 16 buckets, got {a.shape[0]}")
    lanes = a[:8] + a[8:]
    pairs = lanes[0::2] + lanes[1::2]
    halves = pairs[0::2] + pairs[1::2]
    return halves[0] + halves[1]


def _drop_older_rows(
    cnt: np.ndarray,
    mass: np.ndarray,
    rows: slice | np.ndarray,
    cutoff: float,
) -> np.ndarray:
    """Drop whole buckets whose mean generation time precedes ``cutoff``.

    Returns per-row dropped totals.  (The reference scans parcels in push
    order and stops at the first fresh one; with tick-wide buckets the
    mean-gen-time test agrees except when parcels of mixed ages were
    interleaved by transfers, which is what the differential tolerances
    absorb.)
    """
    c = cnt[:, rows]
    m = mass[:, rows]
    mask = (c > 0.0) & (m < cutoff * c)
    dropped = _row_totals(np.where(mask, c, 0.0))
    if mask.any():
        cnt[:, rows] = np.where(mask, 0.0, c)
        mass[:, rows] = np.where(mask, 0.0, m)
    return dropped


def _bucket_span(idx: np.ndarray, n: int) -> tuple[int, int]:
    """The buckets ``lo:hi`` holding the sending cells ``idx`` of a
    bucket-ordered pop over ``n`` rows; ``(0, 0)`` when none sends."""
    if not idx.size:
        return 0, 0
    return int(idx[0]) // n, int(idx[-1]) // n + 1


def _fan_out(
    g: _DepthGroup,
    lo: int,
    hi: int,
    in_cnt: np.ndarray,
    in_mass: np.ndarray,
    net_cnt: np.ndarray,
    net_mass: np.ndarray,
) -> None:
    """Route a group's popped events (``g.pop.take`` and ``g.pop.tm``), times
    each row's selectivity, into its local and remote targets.

    Only buckets ``lo:hi`` are routed: outside the span in which the group
    popped, routing every bucket would add exact zeros.  Rows of sinks or
    ``sel == 0`` stages have no targets, or contribute zeros.
    """
    n = g.n_rows
    w = hi - lo
    if not w:
        return
    out_c = np.multiply(
        g.pop.take[lo:hi], g.sel, out=g.out_c[: w * n].reshape(w, n)
    )
    out_m = np.multiply(
        g.pop.tm[lo:hi], g.sel, out=g.out_m[: w * n].reshape(w, n)
    )
    if g.loc_src is not None:
        in_cnt_f = in_cnt.reshape(-1)
        in_mass_f = in_mass.reshape(-1)
        cells = g.loc_cells[lo:hi].reshape(-1)
        in_cnt_f += np.bincount(
            cells,
            weights=(out_c[:, g.loc_src] * g.loc_frac).reshape(-1),
            minlength=in_cnt_f.shape[0],
        )
        in_mass_f += np.bincount(
            cells,
            weights=(out_m[:, g.loc_src] * g.loc_frac).reshape(-1),
            minlength=in_mass_f.shape[0],
        )
    if g.rem_src is not None:
        k = len(g.rem_src)
        rc = g.rem_c[: w * k].reshape(w, k)
        rm = g.rem_m[: w * k].reshape(w, k)
        np.take(out_c, g.rem_src, axis=1, out=rc)
        np.take(out_m, g.rem_src, axis=1, out=rm)
        net_cnt[lo:hi, g.rem_rows] += np.multiply(rc, g.rem_frac, out=rc)
        net_mass[lo:hi, g.rem_rows] += np.multiply(rm, g.rem_frac, out=rm)


def _deliver(
    in_cnt_f: np.ndarray,
    in_mass_f: np.ndarray,
    idx: np.ndarray,
    take_c: np.ndarray,
    take_m: np.ndarray,
    lat_flat: np.ndarray,
    dst_flat: np.ndarray,
) -> None:
    """Land a WAN pass's sent cells ``idx`` in their destination cells of
    the flat input arrays (``take_m`` is aged in place).

    Aging by link latency: the destination mass is ``sum(c * (gen -
    latency))``; the bucket shift in ``dst_flat`` is the rounded equivalent
    for ordering purposes.  Each destination cell sums its terms in the
    order of ``idx``, which must list any two cells that land in one
    destination cell in flow order.  Bucket order does so when no flow of
    the pass is shifted (a destination cell then only receives one bucket);
    a pass with a shifted flow pops with ``flow_order``.
    """
    take_m -= lat_flat[idx] * take_c
    dst = dst_flat[idx]
    size = in_cnt_f.shape[0]
    in_cnt_f += np.bincount(dst, weights=take_c, minlength=size)
    in_mass_f += np.bincount(dst, weights=take_m, minlength=size)


def _roll_into(cur: np.ndarray, nxt: np.ndarray) -> None:
    """Write ``cur`` aged by one tick into ``nxt``: bucket ``b`` moves to
    ``b + 1``, bucket 0 starts empty and the oldest bucket accumulates.

    One block copy shifts every bucket row down by one; the two row
    fix-ups then clear bucket 0 and merge the two oldest buckets.
    """
    nxt[1:] = cur[:-1]
    nxt[0] = 0.0
    np.add(cur[-1], cur[-2], out=nxt[-1])


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


class FlowTable(Mapping):
    """Read-only per-flow figures of one dense tick: ``TickReport.net_sent``
    and ``TickReport.net_backlog``.

    Holds the compiled model's flow keys and a value array the tick
    allocated fresh (never a scratch buffer, so a kept report reads the
    same after later ticks).  The entries are the flows with positive
    values, in key-array order: the order in which a dict filled by the
    tick would hold them.  :meth:`values` and :meth:`items` are served from
    the arrays; a lookup builds a key dict once per table.
    """

    __slots__ = ("_keys", "_vals", "_pos", "_dict")

    def __init__(self, keys: np.ndarray, vals: np.ndarray) -> None:
        self._keys = keys
        self._vals = vals
        self._pos: np.ndarray | None = None
        self._dict: dict | None = None

    def _positions(self) -> np.ndarray:
        if self._pos is None:
            self._pos = np.flatnonzero(self._vals > 0.0)
        return self._pos

    def _key_list(self) -> list:
        return self._keys[self._positions()].tolist()

    def _lookup(self) -> dict:
        if self._dict is None:
            self._dict = dict(self.items())
        return self._dict

    def values(self) -> list[float]:
        return self._vals[self._positions()].tolist()

    def items(self) -> list[tuple]:
        return list(zip(self._key_list(), self.values()))

    def __iter__(self) -> Iterator:
        return iter(self._key_list())

    def __len__(self) -> int:
        return len(self._positions())

    def __getitem__(self, key):
        return self._lookup()[key]

    def __repr__(self) -> str:
        return f"FlowTable({self._lookup()!r})"


class _FlowPass:
    """One FCFS round of link sharing: at most one flow per link."""

    __slots__ = (
        "flow_keys", "flow_rows", "sent", "link_ids", "lat_flat", "eb",
        "inv_eb", "dst_flat", "pop",
    )


class _DenseStage:
    """Per-stage metadata within a depth group (reporting + generation)."""

    __slots__ = (
        "name", "is_source", "is_sink", "selectivity", "pinned_site",
        "gen_row", "s0", "s1",
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
        "cost_row", "sel", "pop",
        "out_c", "out_m",
        "loc_src", "loc_frac", "loc_cells",
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
        "plan", "version", "parallelism", "links_version", "B",
        "in_rows", "in_persistent",
        "net_rows", "net_keys", "net_persistent",
        "sites", "site_rate", "site_version", "links", "link_base",
        "link_local", "groups", "sources", "source_names", "n_in", "n_net",
        "sent_keys",
    )

    def __init__(
        self,
        plan: PhysicalPlan,
        topology: Topology,
        input_queue: dict,
        net_queue: dict,
        B: int,
    ) -> None:
        self.plan = plan
        self.version = plan.mutation_version()
        self.parallelism = plan.total_parallelism()
        #: Link capacities and latencies are compiled in below.
        self.links_version = topology._links_version
        self.B = B

        in_index: dict[tuple[str, str], int] = {}
        in_rows: list[tuple[str, str]] = []
        in_persistent: list[bool] = []

        def in_row(stage: str, site: str, persist: bool = False) -> int:
            key = (stage, site)
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

        # 1. Read rows: one per placement site of each stage (the reference
        #    creates these queues eagerly every tick), plus the generation
        #    row at each source's pinned site.
        for s in topo_stages:
            for site in sorted(placements[s.name]):
                in_row(s.name, site, persist=True)
            if s.is_source and s.pinned_site is not None:
                in_row(s.name, s.pinned_site)

        # 2. Existing dict keys (includes queues for undeployed sites or
        #    stages outside the plan: they only roll and report backlog).
        for stage, site in sorted(input_queue):
            in_row(stage, site, persist=True)

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

        # 4. Flow destinations.
        for _src_st, dst_st, _su, sd in net_rows:
            in_row(dst_st, sd)

        self.in_rows = in_rows
        self.in_persistent = in_persistent
        self.net_rows = net_rows
        #: The flow keys as an object array, for vectorized key selection.
        self.net_keys = np.fromiter(net_rows, dtype=object, count=len(net_rows))
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
        sent_keys: list[tuple[str, str, str, str]] = []
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
                sites_sorted = sorted(placements[s.name])
                # A stage with a downstream stage that has no task is held
                # back: its rows count no running task, so their capacity
                # is 0.0 and its input waits in its queues.
                held = not all(
                    placements[down.name] for down in downstream[s.name]
                )
                st.s0 = len(rows_l)
                for site in sites_sorted:
                    rows_l.append(in_index[(s.name, site)])
                    row_keys.append((s.name, site))
                    site_ids_l.append(site_id[site])
                    ntasks_l.append(
                        0.0 if held else float(placements[s.name][site])
                    )
                    cost_l.append(s.cost)
                    sel_l.append(s.selectivity)
                st.s1 = len(rows_l)
                st.gen_row = (
                    in_index[(s.name, s.pinned_site)]
                    if s.is_source and s.pinned_site is not None
                    else None
                )
                for down in downstream[s.name]:
                    dplace = placements[down.name]
                    total = sum(dplace.values())
                    for pos, src_site in enumerate(sites_sorted):
                        for dst_site in sorted(dplace):
                            frac = dplace[dst_site] / total
                            if dst_site == src_site:
                                loc.append((
                                    st.s0 + pos,
                                    in_index[(down.name, dst_site)],
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
            g.pop = _PopScratch(g.rows, n, B, self.n_in, dense_mass=True)
            # Flat: the fan-out views them at its bucket span's width.
            g.out_c = np.empty(n * B)
            g.out_m = np.empty(n * B)
            g.row_keys = row_keys
            g.site_ids = np.array(site_ids_l, dtype=np.intp)
            g.n_tasks = np.array(ntasks_l)
            g.cost_row = np.array(cost_l)
            g.sel = np.array(sel_l)
            if loc:
                g.loc_src = np.array([p for p, _, _ in loc], dtype=np.intp)
                g.loc_frac = np.array([f for _, _, f in loc])
                dst = np.array([r for _, r, _ in loc], dtype=np.intp)
                g.loc_cells = bucket_idx[:, None] * self.n_in + dst
            else:
                g.loc_src = None
                g.loc_frac = None
                g.loc_cells = None
            if rem:
                # Each flow key names its source stage and site, so remote
                # targets are unique rows: routing adds into them directly.
                g.rem_src = np.array([p for p, _, _ in rem], dtype=np.intp)
                g.rem_frac = np.array([f for _, _, f in rem])
                g.rem_rows = _rows([r for _, r, _ in rem])
                g.rem_c = np.empty(len(rem) * B)
                g.rem_m = np.empty(len(rem) * B)
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
                ps.sent = slice(len(sent_keys), len(sent_keys) + len(entries))
                sent_keys.extend(ps.flow_keys)
                ps.flow_rows = _rows([net_index[k] for k, _, _ in entries])
                ps.link_ids = np.array(
                    [li for _, li, _ in entries], dtype=np.intp
                )
                lat = np.array([
                    topology.latency_ms(k[2], k[3]) / 1000.0
                    for k, _, _ in entries
                ])
                ps.lat_flat = np.tile(lat, B)
                eb_arr = np.array([e for _, _, e in entries])
                ps.eb = eb_arr
                ps.inv_eb = 1.0 / eb_arr
                dst_rows = np.array(
                    [in_index[(k[1], k[3])] for k, _, _ in entries],
                    dtype=np.intp,
                )
                shift = np.floor(lat / TICK_S + 0.5).astype(np.intp)
                shifted = np.minimum(bucket_idx[:, None] + shift, B - 1)
                ps.dst_flat = (shifted * self.n_in + dst_rows).ravel()
                # A pass that shifts a flow lands cells of several buckets
                # in one destination cell: it pops them in flow order.
                ps.pop = _PopScratch(
                    ps.flow_rows, len(entries), B, self.n_net,
                    flow_order=bool(shift.any()),
                )
                g.passes.append(ps)

            self.groups.append(g)
        #: Every pass's flow keys, in pass order: the keys of ``net_sent``.
        self.sent_keys = np.fromiter(
            sent_keys, dtype=object, count=len(sent_keys)
        )
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
        *,
        degrade_slo_s: float | None = None,
    ) -> None:
        super().__init__(topology, plan, workload, degrade_slo_s=degrade_slo_s)
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
                self._input_queue,
                self._net_queue,
                AGE_BUCKETS,
            )
            self._model = model
            self._sync_in(model)
        elif not self._arrays_live:
            self._sync_in(model)
        return model

    def _sync_in(self, model: _DenseModel) -> None:
        """Load the dict queues into fresh arrays (dicts stay valid)."""
        B = model.B
        dt = TICK_S
        now = self._now_s
        self._in_cnt = np.zeros((B, model.n_in))
        self._in_mass = np.zeros((B, model.n_in))
        self._net_cnt = np.zeros((B, model.n_net))
        self._net_mass = np.zeros((B, model.n_net))
        self._in_cnt_sc = np.empty_like(self._in_cnt)
        self._in_mass_sc = np.empty_like(self._in_mass)
        self._net_cnt_sc = np.empty_like(self._net_cnt)
        self._net_mass_sc = np.empty_like(self._net_mass)
        for i, key in enumerate(model.in_rows):
            queue = self._input_queue.get(key)
            if queue is None or not queue:
                continue
            crow = self._in_cnt[:, i]
            mrow = self._in_mass[:, i]
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
            crow = self._net_cnt[:, i]
            mrow = self._net_mass[:, i]
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
        queues = _row_queues(
            self._in_cnt.T, self._in_mass.T, model.in_persistent
        )
        self._input_queue = {
            key: queue
            for key, queue in zip(model.in_rows, queues)
            if queue is not None
        }
        queues = _row_queues(
            self._net_cnt.T, self._net_mass.T, model.net_persistent
        )
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
        for attr, scr in (
            ("_in_cnt", "_in_cnt_sc"),
            ("_in_mass", "_in_mass_sc"),
            ("_net_cnt", "_net_cnt_sc"),
            ("_net_mass", "_net_mass_sc"),
        ):
            cur = getattr(self, attr)
            nxt = getattr(self, scr)
            _roll_into(cur, nxt)
            setattr(self, attr, nxt)
            setattr(self, scr, cur)

    # ------------------------- inspection API -------------------------- #

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

    def rehome(self, stage_name, from_site, to_site, *, relay):
        self._invalidate()
        super().rehome(stage_name, from_site, to_site, relay=relay)

    def rehome_to_placement(self, stage_name, bandwidth):
        self._invalidate()
        super().rehome_to_placement(stage_name, bandwidth)

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
        dt = TICK_S
        now = self._now_s + dt
        report = TickReport(t_s=now)
        # A caller-owned budget dict is shared with other runtimes: read it
        # and write the consumed budgets back.  Otherwise it is private.
        shared = link_budget is not None

        model = self._ensure_model()
        self._roll()
        in_cnt = self._in_cnt
        in_mass = self._in_mass
        net_cnt = self._net_cnt
        net_mass = self._net_mass
        in_cnt_f = in_cnt.reshape(-1)
        in_mass_f = in_mass.reshape(-1)

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
                # Bucket 0 of the generation row.
                in_cnt_f[st.gen_row] += gen
                in_mass_f[st.gen_row] += gen * mean_gen
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
        # Events sent per flow, in pass order (the report's ``net_sent``).
        sent = np.zeros(len(model.sent_keys))

        for g in model.groups:
            rows = g.rows
            if g.n_rows:
                if cutoff is not None:
                    dropped = _drop_older_rows(in_cnt, in_mass, rows, cutoff)
                    if dropped.any():
                        dlist = dropped.tolist()
                        for st in g.stages:
                            # Left-to-right over the stage's sites, like
                            # the reference's per-site accumulation.
                            dv = 0.0
                            for d in dlist[st.s0:st.s1]:
                                dv += d
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
                idx, _, _, popped, _ = _pop_rows(
                    in_cnt, in_mass, rows, caps, g.pop
                )
                # Sink sums and the fan-out read the take densely.
                take_c = g.pop.take
                take_m = g.pop.tm
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
                        # Summed over a row-major copy, in the order the
                        # sum of a (rows, B) block takes.
                        tc = float(take_c[:, st.s0:st.s1].T.copy().sum())
                        tm = float(take_m[:, st.s0:st.s1].T.copy().sum())
                        report.sink_events += sel * tc
                        report.sink_delay_weighted_s += sel * (now * tc - tm)
                    else:
                        report.emitted[st.name] = sel * stage_processed
                        any_routed = True
                if any_routed:
                    lo, hi = _bucket_span(idx, g.n_rows)
                    _fan_out(g, lo, hi, in_cnt, in_mass, net_cnt, net_mass)

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
                idx, take_c, take_m, moved, before = _pop_rows(
                    net_cnt, net_mass, ps.flow_rows, caps, ps.pop
                )
                nonempty = before > 0.0
                if not nonempty.any():
                    continue
                if shared:
                    touched[ps.link_ids[nonempty]] = True
                lb[ps.link_ids] -= moved * ps.eb
                _deliver(
                    in_cnt_f, in_mass_f, idx, take_c, take_m,
                    ps.lat_flat, ps.dst_flat,
                )
                sent[ps.sent] = moved
                if net_in is not None:
                    # Inflow key: (dst stage, src site, dst site).
                    for key, mv in zip(ps.flow_keys, moved.tolist()):
                        if mv > 0.0:
                            running_sum(net_in, key[1:]).value += mv

        # 3. End-of-tick backlogs.
        in_tot = _row_totals(in_cnt)
        nz = np.nonzero(in_tot > 0.0)[0]
        if nz.size:
            input_backlog = report.input_backlog
            vals = in_tot[nz].tolist()
            for i, v in zip(nz.tolist(), vals):
                input_backlog[model.in_rows[i]] = v
        report.net_sent = FlowTable(model.sent_keys, sent)
        report.net_backlog = FlowTable(model.net_keys, _row_totals(net_cnt))

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
    return runtime(topology, plan, workload, degrade_slo_s=degrade_slo_s)
