"""Fluid-flow execution engine (the Flink stand-in).

The engine advances in fixed ticks.  Event streams are fluid: parcels of
events (with exact generation-time accounting, :mod:`repro.engine.queues`)
flow from pinned sources through stages to sinks, constrained by

* **compute capacity** - tasks at a site process
  ``n_tasks * proc_rate / stage.cost`` events per second; excess input
  accumulates in the stage's per-site input queue (computational
  backpressure, Section 3.3);
* **WAN bandwidth** - inter-site flows share each directed link's byte
  budget per tick; excess output accumulates in sender-side network queues
  (network backpressure), and transferred parcels age by the link latency.

Everything the paper's evaluation measures falls out of this model: event
delay is ``now - gen_time`` at the sink, the processing ratio is sink
throughput converted back to source-equivalents, and bottlenecks manifest
exactly as the paper describes them - ``lambda_P < lambda_I`` when compute
bound, ``lambda_I < sum lambda_O[upstream]`` when network bound.

Adaptations interact with the engine through a small mutation API: stages
can be suspended (state-migration transitions halt execution), a stage's
queued input is re-homed from a vacated site to a live one
(:meth:`EngineRuntime.rehome`), and a running plan can be replaced by a
re-planned one that carries over queues and state for common sub-plans.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from ..errors import SimulationError
from ..network.topology import Topology
from .physical import PhysicalPlan, Stage
from .queues import FluidQueue

#: Conversion: megabits to bytes.
MBIT_BYTES = 1_000_000 / 8

#: The engine's tick length in seconds: the simulator step.
TICK_S = 1.0


def best_connected(
    sites: Iterable[str],
    from_site: str,
    bandwidth: Callable[[str, str], float],
) -> str:
    """The site of ``sites`` with the best ``bandwidth`` from
    ``from_site``; ties go to the first name in sorted order.

    The one target rule for re-homing a vacated site's queued work.
    """
    return max(sorted(sites), key=lambda site: bandwidth(from_site, site))


@dataclass
class RuntimeSnapshot:
    """Copy-on-write capture of the engine's mutable state (rollback unit).

    The snapshot holds :meth:`FluidQueue.clone_cow` clones: each queue's
    parcel storage is shared with the live runtime until either side
    mutates it, so snapshotting is O(queues) instead of O(parcels) and an
    adaptation attempt only pays deep copies for the queues it actually
    touches.  Restoring hands out fresh COW clones too, so restoring twice
    (or restoring after further mutation) is always exact.
    """

    plan: PhysicalPlan
    input_queue: dict[tuple[str, str], FluidQueue]
    net_queue: dict[tuple[str, str, str, str], FluidQueue]
    suspended_until: dict[str, float]


@dataclass(slots=True)
class TickReport:
    """Raw per-tick observations, consumed by the metric monitor.

    The per-flow fields ``net_sent`` and ``net_backlog`` are read-only
    mappings holding only positive entries: the reference engine fills
    plain dicts, the dense engine hands over
    :class:`~repro.engine.dense.FlowTable` views of its arrays.
    """

    t_s: float
    offered: float = 0.0
    #: raw events generated per source stage this tick
    offered_by_source: dict[str, float] = field(default_factory=dict)
    sink_events: float = 0.0
    sink_delay_weighted_s: float = 0.0
    dropped_source_equiv: float = 0.0
    #: events processed by each stage this tick
    processed: dict[str, float] = field(default_factory=dict)
    #: events emitted by each stage this tick
    emitted: dict[str, float] = field(default_factory=dict)
    #: per (stage, site): input backlog at end of tick
    input_backlog: dict[tuple[str, str], float] = field(default_factory=dict)
    #: per flow: events transferred this tick
    net_sent: Mapping[tuple[str, str, str, str], float] = field(
        default_factory=dict
    )
    #: per flow: network backlog at end of tick
    net_backlog: Mapping[tuple[str, str, str, str], float] = field(
        default_factory=dict
    )
    #: per stage: raw events dropped from its input queues (SLO cutoff)
    dropped_raw_input: dict[str, float] = field(default_factory=dict)
    #: per destination stage: raw events dropped from in-flight net queues
    dropped_raw_net: dict[str, float] = field(default_factory=dict)
    #: total tasks of the plan the tick executed
    parallelism: int = 0

    def mean_sink_delay_s(self) -> float:
        if self.sink_events <= 0:
            return float("nan")
        return self.sink_delay_weighted_s / self.sink_events


class RunningSum:
    """One running sum of the metric window: a cell that the engine's
    execution records hold on to, so a tick adds into it without a dict
    lookup."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0


def running_sum(table: dict, key) -> RunningSum:
    """``table[key]``, entered as a fresh :class:`RunningSum` at first use."""
    cell = table.get(key)
    if cell is None:
        cell = table[key] = RunningSum()
    return cell


class WindowSums:
    """Running per-key sums of the current metric window.

    The engine adds each tick's values here as it writes them into the
    tick's :class:`TickReport`, once a
    :class:`~repro.engine.metrics.GlobalMetricMonitor` has bound the sums
    (:meth:`EngineRuntime.bind_window`); the monitor builds its window from
    them and :meth:`reset` starts the next one.  Each key's
    :class:`RunningSum` starts at 0.0, takes its adds in tick order, then
    in the order the tick writes them, and enters its dict at first
    appearance: the sums are bit for bit the per-report fold of the
    window's reports.  Tick totals (``offered``, sink events and delay
    weight) are added once per tick.  ``generation`` counts resets, so a
    writer can tell that the cells it holds belong to an ended window.
    """

    __slots__ = (
        "generation", "offered", "sink_events", "delay_weight",
        "source_gen", "processed", "capacity", "net_in",
    )

    def __init__(self) -> None:
        self.generation = 0
        self.reset()

    def reset(self) -> None:
        """Start an empty window."""
        self.generation += 1
        self.offered = 0.0
        self.sink_events = 0.0
        self.delay_weight = 0.0
        #: per source stage: raw events generated
        self.source_gen: dict[str, RunningSum] = {}
        #: per stage: events processed (stages that processed any)
        self.processed: dict[str, RunningSum] = {}
        #: per stage, per site: processing capacity
        self.capacity: dict[str, dict[str, RunningSum]] = {}
        #: per (dst stage, src site, dst site): events moved over the WAN
        #: (only flows that moved any)
        self.net_in: dict[tuple[str, str, str], RunningSum] = {}


#: The routing of a row that routes nothing.
_NO_ROUTE: tuple = ()


class _DownstreamExec:
    """Precomputed fan-out of one stage edge (balanced partitioning)."""

    __slots__ = ("name", "shares")

    def __init__(self, down: Stage) -> None:
        placement = down.placement()
        total_tasks = sum(placement.values())
        self.name = down.name
        #: (dst_site, task fraction, input-queue key) in sorted site order;
        #: empty while the stage has no task.
        self.shares = [
            (site, placement[site] / total_tasks, (down.name, site))
            for site in sorted(placement)
        ]


class _StageExec:
    """Per-stage execution record precomputed from the physical plan.

    Everything here is derived from the plan structure and the current
    placement: chained selectivity/cost, sorted per-site task rows (with
    the site objects and queue keys pre-resolved) and downstream fan-out
    fractions.  ``row_caps`` holds each row's per-tick capacity ``n_tasks
    * rate / cost * TICK_S`` for the site states its :class:`_PlanCache`
    was last stamped with (:meth:`_PlanCache.refresh_capacities`); it is
    0.0 on every row of a ``held`` stage, one with a downstream stage that
    has no task: its input waits in its queues until the downstream is
    deployed again.

    Two further tables depend on the runtime's queues as well and carry
    their own stamps: ``routes`` (per source site, the resolved routing
    targets of :meth:`EngineRuntime._route_targets`,
    valid while ``routes_version`` equals the runtime's net version) and
    ``flows`` (the stage's outgoing flow records,
    valid for ``flows_stamp``; see
    :meth:`EngineRuntime._build_flow_records`).
    """

    __slots__ = (
        "stage", "name", "is_source", "is_sink", "selectivity", "cost",
        "output_event_bytes", "pinned_site", "gen_key", "site_rows",
        "row_caps", "downstream", "held", "routes", "routes_version",
        "flows", "flows_stamp",
        "gen_sum", "processed_sum", "capacity_sums", "flow_sums",
    )

    def __init__(self, stage: Stage, topology: Topology) -> None:
        self.stage = stage
        self.name = stage.name
        self.is_source = stage.is_source
        self.is_sink = stage.is_sink
        self.selectivity = stage.selectivity
        self.cost = stage.cost
        self.output_event_bytes = stage.output_event_bytes
        self.pinned_site = stage.pinned_site
        #: The input queue generation pushes into (a source's pinned site).
        self.gen_key = (stage.name, stage.pinned_site)
        placement = stage.placement()
        #: (site, Site object, n_tasks, queue key, row number) in sorted
        #: site order.
        self.site_rows = [
            (site, topology.site(site), placement[site], (stage.name, site), i)
            for i, site in enumerate(sorted(placement))
        ]
        self.row_caps: list[float] = []
        self.downstream: list[_DownstreamExec] = []
        self.held = False
        self.routes: dict[str, list[tuple[FluidQueue, float]]] = {}
        self.routes_version = -1
        self.flows: list[tuple] = []
        self.flows_stamp: tuple | None = None
        #: The window cells this record adds into, set by :meth:`bind_sums`
        #: (None while no monitor is bound).
        self.gen_sum: RunningSum | None = None
        self.capacity_sums: list[RunningSum] | None = None
        self.processed_sum: RunningSum | None = None
        self.flow_sums: list[RunningSum | None] | None = None

    def bind_sums(self, window: WindowSums) -> None:
        """Take the cells of a (new) window.

        A tick writes every source's generation and every site row's
        capacity, so those cells are entered here, in the tick's write
        order.  The processed sum, and per outgoing flow (in ``flows``
        order) the inflow sum of its destination, are sparse: they are
        entered at the first positive add.
        """
        if self.is_source:
            self.gen_sum = running_sum(window.source_gen, self.name)
        by_site = window.capacity.setdefault(self.name, {})
        self.capacity_sums = [
            running_sum(by_site, row[0]) for row in self.site_rows
        ]
        self.processed_sum = None
        self.flow_sums = None


class _PlanCache:
    """Execution records for one (plan, mutation version) combination.

    The cache is valid while the runtime executes the *same plan object*
    at the *same mutation version*; any task mutation anywhere (reassign,
    rescale, transaction rollback) bumps the plan's monotonic mutation
    counter and invalidates it.  The plan reference is
    held strongly so an ``is`` check can never be confused by object-id
    reuse.  The records' row capacities carry their own stamp, the
    topology's site-state version.
    """

    __slots__ = (
        "plan", "version", "parallelism", "topo", "sources", "source_names",
        "sums_generation", "caps_site_version",
    )

    def __init__(
        self, plan: PhysicalPlan, version: int, topology: Topology
    ) -> None:
        self.plan = plan
        self.version = version
        self.parallelism = plan.total_parallelism()
        self.topo = [
            _StageExec(stage, topology)
            for stage in plan.topological_stages()
        ]
        for ex in self.topo:
            ex.downstream = [
                _DownstreamExec(down)
                for down in plan.downstream_stages(ex.name)
            ]
            ex.held = not all(down.shares for down in ex.downstream)
        self.sources = [ex for ex in self.topo if ex.is_source]
        for src in self.sources:
            if src.pinned_site is None:
                raise SimulationError(
                    f"source stage {src.name!r} has no pinned site"
                )
        #: The workload's argument for one rate read per tick.
        self.source_names = tuple(src.name for src in self.sources)
        #: The window generation the records' sum cells belong to.
        self.sums_generation = -1
        #: The site-state version ``row_caps`` are for.
        self.caps_site_version = -1

    def refresh_capacities(self, site_version: int) -> None:
        """Recompute every row's per-tick capacity (0.0 on a failed site
        and for a held stage) and stamp them with ``site_version``."""
        for ex in self.topo:
            cost = ex.cost
            held = ex.held
            ex.row_caps = [
                0.0 if held or site_obj.failed
                else n_tasks * site_obj.effective_proc_rate_eps / cost * TICK_S
                for _, site_obj, n_tasks, _, _ in ex.site_rows
            ]
        self.caps_site_version = site_version


class EngineRuntime:
    """Executes one physical plan on a topology, one tick at a time."""

    def __init__(
        self,
        topology: Topology,
        plan: PhysicalPlan,
        workload: "WorkloadModel",
        *,
        degrade_slo_s: float | None = None,
    ) -> None:
        self._topology = topology
        self._plan = plan
        self._workload = workload
        self._degrade_slo_s = degrade_slo_s
        self._now_s = 0.0

        # Queues.  input: per (stage, site) processing queues (a source's
        # generated events wait in its queue at its pinned site); net:
        # sender-side per-flow WAN queues.
        self._input_queue: dict[tuple[str, str], FluidQueue] = {}
        self._net_queue: dict[tuple[str, str, str, str], FluidQueue] = {}
        #: Per src-stage sorted lists of ``_net_queue`` keys, so the per-tick
        #: transfer pass never scans (and re-sorts) the whole flow table.
        self._net_index: dict[str, list[tuple[str, str, str, str]]] = {}
        #: Bumped whenever a flow queue is added, the flow table is
        #: rebuilt or an input queue is removed or replaced; stamps the
        #: per-stage route tables (which hold flow and input queues) and
        #: flow-record tables.
        self._net_version = 0
        #: The flow records' stamp (net-index version, topology factors
        #: version), rebuilt only when one of them moves.
        self._flow_stamp: tuple = (-1, -1)
        #: Version-checked execution records (see :class:`_PlanCache`).
        self._exec_cache: _PlanCache | None = None

        self._suspended_until: dict[str, float] = {}
        self._stage_equiv_factor: dict[str, float] = {}
        self._plan_selectivity = 1.0
        self._refresh_plan_constants()
        #: The metric window's running sums, once a monitor bound them.
        self._window: WindowSums | None = None

        self.last_report = TickReport(t_s=0.0)

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #

    @property
    def now_s(self) -> float:
        return self._now_s

    @property
    def plan(self) -> PhysicalPlan:
        return self._plan

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def workload(self) -> "WorkloadModel":
        return self._workload

    @property
    def degrade_slo_s(self) -> float | None:
        return self._degrade_slo_s

    def bind_window(self) -> WindowSums:
        """Start keeping the metric window's running sums; returns them.

        Every later tick adds its values into the returned
        :class:`WindowSums`.  A runtime feeds one monitor: a second bind
        raises :class:`~repro.errors.SimulationError`.
        """
        if self._window is not None:
            raise SimulationError("runtime already feeds a metric monitor")
        self._window = WindowSums()
        return self._window

    def _refresh_plan_constants(self) -> None:
        """Recompute selectivity conversion tables after a plan change."""
        logical = self._plan.logical
        weights = None
        base_rates = getattr(self._workload, "base_rate_eps", None)
        if callable(base_rates):
            weights = {
                op.name: base_rates(op.name) for op in logical.sources()
            }
        self._plan_selectivity = max(
            logical.plan_selectivity(weights), 1e-12
        )
        # Conversion factors from stage-input events to source-equivalents,
        # weighted by the workload's base rate mix so they agree with the
        # sink conversion (a heavy ad stream and a campaign trickle must
        # not be treated alike).  Falls back to unit weights when the
        # workload exposes no base rates.
        if weights and sum(weights.values()) > 0:
            reference = dict(weights)
        else:
            reference = {s.name: 1.0 for s in self._plan.source_stages()}
        total_reference = max(sum(reference.values()), 1e-12)
        rates = self._plan.expected_stage_rates(reference)
        self._stage_equiv_factor = {
            name: total_reference / max(vals["input"], 1e-12)
            for name, vals in rates.items()
        }

    # ------------------------------------------------------------------ #
    # Queue helpers
    # ------------------------------------------------------------------ #

    def _input_q(self, key: tuple[str, str]) -> FluidQueue:
        """Get-or-create a stage's input queue at a site."""
        queue = self._input_queue.get(key)
        if queue is None:
            queue = self._input_queue[key] = FluidQueue()
        return queue

    def _net_q(self, key: tuple[str, str, str, str]) -> FluidQueue:
        """Get-or-create a WAN flow queue, keeping the per-stage index."""
        queue = self._net_queue.get(key)
        if queue is None:
            queue = FluidQueue()
            self._net_queue[key] = queue
            insort(self._net_index.setdefault(key[0], []), key)
            self._net_version += 1
        return queue

    def _rebuild_net_index(self) -> None:
        """Recompute the per-stage flow index after wholesale changes
        (snapshot restore, flow redirection, re-homing, plan
        replacement)."""
        index: dict[str, list[tuple[str, str, str, str]]] = {}
        for key in self._net_queue:
            index.setdefault(key[0], []).append(key)
        for keys in index.values():
            keys.sort()
        self._net_index = index
        self._net_version += 1

    def _plan_cache(self) -> _PlanCache:
        """Return valid execution records, rebuilding on plan mutation."""
        plan = self._plan
        version = plan.mutation_version()
        cache = self._exec_cache
        if (
            cache is None
            or cache.plan is not plan
            or cache.version != version
        ):
            cache = _PlanCache(plan, version, self._topology)
            self._exec_cache = cache
        return cache

    def total_backlog(self) -> float:
        return (
            sum(q.count for q in self._input_queue.values())
            + sum(q.count for q in self._net_queue.values())
        )

    def iter_queues(self):
        """Yield ``(table, key, queue)`` for every live queue.

        ``table`` is ``"input"`` (key ``(stage, site)``) or ``"net"`` (key
        ``(src_stage, dst_stage, src_site, dst_site)``).  Read-only
        inspection surface for invariant checkers and tests; the yielded
        queues must not be mutated.
        """
        for key in sorted(self._input_queue):
            yield "input", key, self._input_queue[key]
        for key in sorted(self._net_queue):
            yield "net", key, self._net_queue[key]

    # ------------------------------------------------------------------ #
    # Mutation API (used by the scheduler / reconfiguration manager)
    # ------------------------------------------------------------------ #

    def suspend_stage(self, stage_name: str, until_s: float) -> None:
        """Halt a stage's processing until ``until_s`` (state transition)."""
        current = self._suspended_until.get(stage_name, 0.0)
        self._suspended_until[stage_name] = max(current, until_s)

    def suspended_until(self, stage_name: str) -> float:
        return self._suspended_until.get(stage_name, 0.0)

    def is_suspended(self, stage_name: str) -> bool:
        return self._now_s < self._suspended_until.get(stage_name, 0.0)

    def rehome(
        self, stage_name: str, from_site: str, to_site: str, *, relay: bool
    ) -> None:
        """Move a stage's queued work off ``from_site`` onto ``to_site``.

        The input queued at ``from_site`` drains into the stage's input at
        ``to_site``: at once when a task migrates (``relay=False``; the
        queued events travel with the state transfer, and the transition
        suspension accounts for the time cost), or as a relay flow over
        the WAN when a scale-down terminates the task (``relay=True``;
        "relayed data streams", Section 4.2), which pays for the link
        like any other traffic.  The drained input queue stays in the
        table.  In-flight WAN queues bound for ``from_site`` are then
        repointed to ``to_site``.
        """
        src = self._input_queue.get((stage_name, from_site))
        if src:
            if relay:
                dst = self._net_q((stage_name, stage_name, from_site, to_site))
            else:
                dst = self._input_q((stage_name, to_site))
            src.drain_into(dst)
        changed = False
        for key in list(self._net_queue):
            src_stage, dst_stage, su, sd = key
            if dst_stage != stage_name or sd != from_site:
                continue
            queue = self._net_queue.pop(key)
            changed = True
            if not queue:
                continue
            queue.drain_into(self._net_q((src_stage, dst_stage, su, to_site)))
        if changed:
            self._rebuild_net_index()

    def rehome_to_placement(
        self, stage_name: str, bandwidth: Callable[[str, str], float]
    ) -> None:
        """Move queues destined for sites where the stage has no tasks.

        After a re-plan the stage's placement may no longer cover every
        site holding queued input or expecting in-flight traffic; this
        sweep re-homes those onto the stage's live sites, each onto the
        :func:`best_connected` one by ``bandwidth`` from the vacated site.
        Unlike :meth:`rehome`, it removes the vacated input queues.
        """
        stage = self._plan.stages.get(stage_name)
        if stage is None:
            return
        live = set(stage.placement())
        if not live:
            return

        # Removing an input queue moves the net version (routes hold
        # input queues) just as removing a flow queue does.
        changed = False
        for (name, site) in list(self._input_queue):
            if name != stage_name or site in live:
                continue
            queue = self._input_queue.pop((name, site))
            changed = True
            if queue:
                # Queued input at a vacated site relays over the WAN to a
                # live task (Section 4.2's "relayed data streams"); the
                # relay flow pays for the link like any other traffic.
                relay = self._net_q((
                    stage_name, stage_name, site,
                    best_connected(live, site, bandwidth),
                ))
                queue.drain_into(relay)
        for key in list(self._net_queue):
            src_stage, dst_stage, su, sd = key
            if dst_stage != stage_name or sd in live:
                continue
            queue = self._net_queue.pop(key)
            changed = True
            if queue:
                queue.drain_into(self._net_q((
                    src_stage, dst_stage, su,
                    best_connected(live, sd, bandwidth),
                )))
        if changed:
            self._rebuild_net_index()

    def inject_replay(
        self, stage_name: str, site: str, events: float, gen_time_s: float
    ) -> None:
        """Queue events for re-processing after a failure recovery.

        Work processed since the last local checkpoint is lost with the
        failure and must be replayed from the upstream logs (Section 5's
        checkpoint/restore semantics): it re-enters the stage's input queue
        carrying its original generation time, so the recovery's delay cost
        is measured honestly.
        """
        if events <= 0:
            return
        self._input_q((stage_name, site)).push(events, gen_time_s)

    def mutation_snapshot(self) -> "RuntimeSnapshot":
        """Capture everything the mutation API can change.

        The transactional adaptation executor calls this before applying an
        action; :meth:`restore_mutation_snapshot` puts the engine back
        exactly (queues, suspensions, plan reference) if the action has to
        be rolled back mid-flight.  Queues are captured copy-on-write: only
        the ones the adaptation attempt actually mutates are ever deep
        copied.
        """
        return RuntimeSnapshot(
            plan=self._plan,
            input_queue={
                k: q.clone_cow() for k, q in self._input_queue.items()
            },
            net_queue={k: q.clone_cow() for k, q in self._net_queue.items()},
            suspended_until=dict(self._suspended_until),
        )

    def restore_mutation_snapshot(self, snapshot: "RuntimeSnapshot") -> None:
        """Restore a :meth:`mutation_snapshot` (adaptation rollback)."""
        plan_changed = snapshot.plan is not self._plan
        self._plan = snapshot.plan
        self._input_queue = {
            k: q.clone_cow() for k, q in snapshot.input_queue.items()
        }
        self._net_queue = {
            k: q.clone_cow() for k, q in snapshot.net_queue.items()
        }
        self._suspended_until = dict(snapshot.suspended_until)
        self._rebuild_net_index()
        if plan_changed:
            self._refresh_plan_constants()

    def replace_plan(self, new_plan: PhysicalPlan) -> None:
        """Swap in a re-planned physical plan (Section 4.3).

        Stages present in both plans (common sub-plans - same head operator
        name) keep their input queues.  In-flight network queues are re-bound
        to the new downstream of their source stage where possible and
        dropped otherwise (the re-planner only removes stateless stages, so
        no state is lost; the events are re-read from upstream queues in the
        stateless case and re-counted as queued work).
        """
        old_plan = self._plan
        surviving = set(new_plan.stages) & set(old_plan.stages)

        # Input queues: keep for surviving stages, fold removed stages'
        # queues back into the new consumer of their upstream output.
        new_downstream_of: dict[str, list[str]] = {
            name: [s.name for s in new_plan.downstream_stages(name)]
            for name in new_plan.stages
        }
        for (stage_name, site) in list(self._input_queue):
            if stage_name in surviving:
                continue
            queue = self._input_queue.pop((stage_name, site))
            if not queue:
                continue
            # Feed the orphaned events to the first surviving upstream's new
            # downstream, at the same site (they will be routed from there).
            upstream = [
                u.name
                for u in old_plan.upstream_stages(stage_name)
                if u.name in surviving
            ]
            heirs = new_downstream_of.get(upstream[0], []) if upstream else []
            if heirs:
                heir = heirs[0]
                queue.drain_into(self._input_q((heir, site)))

        for key in list(self._net_queue):
            src_stage, dst_stage, su, sd = key
            if src_stage in surviving and dst_stage in surviving:
                # Edge may no longer exist; re-bind to the new downstream.
                if dst_stage in new_downstream_of.get(src_stage, []):
                    continue
            queue = self._net_queue.pop(key)
            if not queue:
                continue
            if src_stage in surviving:
                heirs = new_downstream_of.get(src_stage, [])
                if heirs:
                    target = self._net_q((src_stage, heirs[0], su, sd))
                    queue.drain_into(target)

        self._plan = new_plan
        self._rebuild_net_index()
        self._refresh_plan_constants()

    # ------------------------------------------------------------------ #
    # Tick
    # ------------------------------------------------------------------ #

    def tick(
        self, link_budget: dict[tuple[str, str], float] | None = None
    ) -> TickReport:
        """Advance the engine by one tick; returns the tick's observations.

        Args:
            link_budget: Per-tick directed-link byte budgets.  Pass a dict
                shared across several runtimes to make co-located queries
                contend for the same WAN links (Section 3.2's "bandwidth
                contention with other executions"); by default each tick
                gets a private budget.
        """
        dt = TICK_S
        now = self._now_s + dt
        report = TickReport(t_s=now)

        if link_budget is None:
            link_budget = {}

        cache = self._plan_cache()
        topology = self._topology
        site_version = topology._site_states.value
        if cache.caps_site_version != site_version:
            cache.refresh_capacities(site_version)
        input_queue = self._input_queue
        window = self._window
        # New records, or a collect since the last tick started a new
        # window: hand the records the current window's cells.
        if window is not None and cache.sums_generation != window.generation:
            for ex in cache.topo:
                ex.bind_sums(window)
            cache.sums_generation = window.generation

        # 1. External generation, into each source's input queue at its
        # pinned site.
        offered = 0.0
        offered_by_source = report.offered_by_source
        # Events generated uniformly across the tick: mean age dt/2.
        mean_gen_time = now - dt / 2
        rates = self._workload.generation_rates(cache.source_names, now)
        for src, rate in zip(cache.sources, rates):
            gen = rate * dt
            if gen > 0:
                queue = input_queue.get(src.gen_key)
                if queue is None:
                    queue = FluidQueue()
                    input_queue[src.gen_key] = queue
                queue.push(gen, mean_gen_time)
            offered += gen
            offered_by_source[src.name] = gen
            if src.gen_sum is not None:
                src.gen_sum.value += gen
        report.offered = offered

        # 2. Stage execution in topological order, transferring each stage's
        # outgoing flows immediately so downstream stages can consume them
        # within the same tick (sub-tick pipelining).  Relay flows
        # (scale-down) run from a stage to itself over the same net queues.
        # The single-target row pop and the WAN transfer run in place over
        # the queues' columns: most calls move one parcel, so a queue call
        # per row or flow would cost more than the move.
        slo = self._degrade_slo_s
        cutoff = (now - slo) if slo is not None else None
        stamp = self._flow_stamp
        if (
            stamp[0] != self._net_version
            or stamp[1] != topology._factors_version
        ):
            stamp = self._flow_stamp = (
                self._net_version, topology._factors_version
            )
        suspended_until = self._suspended_until
        processed_by = report.processed
        net_sent = report.net_sent
        eps = FluidQueue._MERGE_EPS
        for ex in cache.topo:
            # -- Process the stage's input queues (after the Degrade
            # ``cutoff`` drop, if any) at its row capacities and route the
            # output.
            name = ex.name
            sel = ex.selectivity
            is_sink = ex.is_sink
            suspended = self._now_s < suspended_until.get(name, 0.0)
            row_caps = ex.row_caps
            capacity_sums = ex.capacity_sums
            # Routes stay valid while the net version does not move: it
            # moves whenever a queue they hold is removed or replaced.
            # Routes resolved below may add queues (bumping the version),
            # and adding a queue never replaces another, so they stay
            # valid too.
            routes = ex.routes
            if ex.routes_version != self._net_version:
                routes.clear()
            routed = not is_sink and sel != 0.0
            stage_processed = 0.0
            stage_emitted = 0.0
            had_output = False
            for site, _, _, site_key, row_no in ex.site_rows:
                queue = input_queue.get(site_key)
                if queue is None:
                    queue = FluidQueue()
                    input_queue[site_key] = queue
                if cutoff is not None:
                    dropped = queue.drop_older_than(cutoff)
                    if dropped > 0:
                        report.dropped_source_equiv += self._to_source_equiv(
                            name, dropped
                        )
                        report.dropped_raw_input[name] = (
                            report.dropped_raw_input.get(name, 0.0) + dropped
                        )
                capacity = 0.0 if suspended else row_caps[row_no]
                if capacity_sums is not None:
                    capacity_sums[row_no].value += capacity

                if is_sink:
                    # The chained selectivity is applied while popping.
                    counts: list[float] = []
                    gens: list[float] = []
                    processed, emitted = queue.pop_scaled_into(
                        capacity, sel, counts, gens
                    )
                    if processed <= 0:
                        continue
                    stage_processed += processed
                    delay = 0.0
                    for c, g in zip(counts, gens):
                        delay += c * (now - g)
                    report.sink_events += emitted
                    report.sink_delay_weighted_s += delay
                    continue

                route = routes.get(site) if routed else _NO_ROUTE
                if route is None:
                    # A row's targets (and the queues they create) are
                    # resolved when it first has output to route.
                    route = _NO_ROUTE
                    if queue.would_pop(capacity):
                        route = routes[site] = self._route_targets(ex, site)
                if len(route) != 1:
                    processed, emitted = queue.pop_routed(
                        capacity, sel, route
                    )
                else:
                    # ``queue.pop_routed(capacity, sel, route)`` for the
                    # one target most rows have: pop FIFO up to the
                    # capacity, scale by the selectivity, then by the
                    # target's fraction, and push.
                    if capacity < 0:
                        raise SimulationError(
                            f"cannot pop negative count {capacity}"
                        )
                    if sel < 0:
                        raise SimulationError(
                            f"scale factor must be >= 0, got {sel}"
                        )
                    queued = queue._count
                    remaining = queued if queued < capacity else capacity
                    processed = emitted = 0.0
                    if remaining > 1e-12 and queue._counts:
                        if queue._shared:
                            queue._materialize()
                        target, fraction = route[0]
                        if fraction < 0:
                            raise SimulationError(
                                f"scale factor must be >= 0, got {fraction}"
                            )
                        if fraction and target._shared:
                            target._materialize()
                        q_counts = queue._counts
                        q_gens = queue._gens
                        t_counts = target._counts
                        t_gens = target._gens
                        arrived = target._count
                        while remaining > 1e-12 and q_counts:
                            c = q_counts.popleft()
                            if c <= remaining + 1e-12:
                                g = q_gens.popleft()
                                remaining -= c
                            else:
                                # Split head: put the rest back.
                                q_counts.appendleft(c - remaining)
                                c = remaining
                                g = q_gens[0]
                                remaining = 0.0
                            queued -= c
                            processed += c
                            c *= sel
                            emitted += c
                            c *= fraction
                            if c == 0.0:
                                continue
                            if t_gens and -eps < t_gens[-1] - g < eps:
                                t_counts[-1] += c
                            else:
                                t_counts.append(c)
                                t_gens.append(g)
                            arrived += c
                        target._count = arrived
                    if queued < 1e-12:
                        queue._count = 0.0
                        if queue._counts:
                            queue._drain_reset()
                    else:
                        queue._count = queued
                if processed <= 0:
                    continue
                stage_processed += processed
                had_output = True
                stage_emitted += emitted
            ex.routes_version = self._net_version
            if stage_processed > 0.0:
                processed_by[name] = stage_processed
                if window is not None:
                    cell = ex.processed_sum
                    if cell is None:
                        cell = ex.processed_sum = running_sum(
                            window.processed, name
                        )
                    cell.value += stage_processed
            if had_output:
                report.emitted[name] = stage_emitted

            # -- Move the stage's outgoing WAN queues within link budgets,
            # along its current flow records (after the Degrade ``cutoff``
            # drop).  Routing may have created a flow queue, which moves
            # the net version.  A stage without outgoing flows skips this.
            if stamp[0] != self._net_version:
                stamp = self._flow_stamp = (self._net_version, stamp[1])
            if ex.flows_stamp is not stamp:
                self._build_flow_records(ex, stamp)
            flows = ex.flows
            if not flows:
                continue
            event_bytes = ex.output_event_bytes
            if window is not None:
                flow_sums = ex.flow_sums
                if flow_sums is None:
                    flow_sums = ex.flow_sums = [None] * len(flows)
            # FCFS link sharing across flows, in the records' sorted order.
            for (
                queue, key, link, dst_stage, in_key, flow_no, full_budget,
                latency_s,
            ) in flows:
                if not queue._count > 1e-12:
                    continue
                if cutoff is not None:
                    dropped = queue.drop_older_than(cutoff)
                    if dropped > 0:
                        report.dropped_source_equiv += self._to_source_equiv(
                            dst_stage, dropped
                        )
                        report.dropped_raw_net[dst_stage] = (
                            report.dropped_raw_net.get(dst_stage, 0.0)
                            + dropped
                        )
                    if not queue._count > 1e-12:
                        continue
                budget = link_budget.get(link)
                if budget is None:
                    budget = full_budget
                    link_budget[link] = budget
                budget_events = budget / event_bytes
                if budget_events <= 0:
                    continue
                if latency_s < 0:
                    raise SimulationError(
                        f"extra_age_s must be >= 0, got {latency_s}"
                    )
                dst_q = input_queue.get(in_key)
                fresh = dst_q is None
                if fresh:
                    dst_q = FluidQueue()
                # Pop FIFO up to the budget and push into the destination,
                # each parcel aged by the link latency.
                queued = queue._count
                remaining = (
                    queued if queued < budget_events else budget_events
                )
                moved = 0.0
                if remaining > 1e-12 and queue._counts:
                    if queue._shared:
                        queue._materialize()
                    if dst_q._shared:
                        dst_q._materialize()
                    q_counts = queue._counts
                    q_gens = queue._gens
                    d_counts = dst_q._counts
                    d_gens = dst_q._gens
                    arrived = dst_q._count
                    while remaining > 1e-12 and q_counts:
                        c = q_counts.popleft()
                        if c <= remaining + 1e-12:
                            g = q_gens.popleft() - latency_s
                            remaining -= c
                        else:
                            q_counts.appendleft(c - remaining)
                            c = remaining
                            g = q_gens[0] - latency_s
                            remaining = 0.0
                        queued -= c
                        moved += c
                        if d_gens and -eps < d_gens[-1] - g < eps:
                            d_counts[-1] += c
                        else:
                            d_counts.append(c)
                            d_gens.append(g)
                        arrived += c
                    queue._count = queued
                    dst_q._count = arrived
                if queued < 1e-12:
                    queue._count = 0.0
                    if queue._counts:
                        queue._drain_reset()
                if moved <= 0:
                    continue
                if fresh:
                    # A destination queue exists once events land in it.
                    input_queue[in_key] = dst_q
                link_budget[link] = budget - moved * event_bytes
                # Each flow transfers once per tick (0.0 + moved == moved).
                net_sent[key] = moved
                if window is not None:
                    cell = flow_sums[flow_no]
                    if cell is None:
                        cell = flow_sums[flow_no] = running_sum(
                            window.net_in, (dst_stage, *link)
                        )
                    cell.value += moved

        # 3. Record end-of-tick backlogs.
        input_backlog = report.input_backlog
        for key, queue in input_queue.items():
            backlog = queue._count
            if backlog > 0:
                input_backlog[key] = backlog
        net_backlog = report.net_backlog
        for key, queue in self._net_queue.items():
            backlog = queue._count
            if backlog > 0:
                net_backlog[key] = backlog
        report.parallelism = cache.parallelism
        if window is not None:
            window.offered += offered
            window.sink_events += report.sink_events
            window.delay_weight += report.sink_delay_weighted_s

        self._now_s = now
        self.last_report = report
        return report

    # -------------------------- stage execution ------------------------ #

    def _route_targets(
        self, ex: _StageExec, src_site: str
    ) -> list[tuple[FluidQueue, float]]:
        """The routing of one source site of a stage.

        Balanced event partitioning (Section 7): each downstream stage
        receives the full stream, split across its tasks in proportion to
        tasks per site.  Returns the ``(queue, fraction)`` targets in
        fan-out order, a co-located share targeting the downstream's input
        queue and a remote share its WAN flow queue (each created here if
        missing).
        """
        targets: list[tuple[FluidQueue, float]] = []
        for down in ex.downstream:
            for dst_site, fraction, in_key in down.shares:
                if dst_site == src_site:
                    queue = self._input_q(in_key)
                else:
                    queue = self._net_q((ex.name, down.name, src_site, dst_site))
                targets.append((queue, fraction))
        return targets

    def _build_flow_records(self, ex: _StageExec, stamp: tuple) -> None:
        """Rebuild the stage's outgoing WAN flow records, FCFS (sorted key)
        order, and stamp them.

        Each record is ``(flow queue, flow key, link, destination stage,
        destination input key, record number, full-link byte budget,
        latency_s)``; the record number indexes the stage's window inflow
        cells (``flow_sums``).  The
        stamp is the tick's ``_flow_stamp`` (net-index version, topology
        factors version): flow queues change only with the
        net index, and link capacities and latencies only with a factor
        write or a link redefinition, both of which bump
        ``Topology._factors_version``.
        """
        topology = self._topology
        net_queue = self._net_queue
        records = []
        for flow_no, key in enumerate(self._net_index.get(ex.name, ())):
            _, dst_stage, src_site, dst_site = key
            budget = (
                topology.bandwidth_mbps(src_site, dst_site) * MBIT_BYTES
                * TICK_S
            )
            latency_s = topology.latency_ms(src_site, dst_site) / 1000.0
            records.append((
                net_queue[key], key, (src_site, dst_site), dst_stage,
                (dst_stage, dst_site), flow_no, budget, latency_s,
            ))
        ex.flows = records
        ex.flows_stamp = stamp
        ex.flow_sums = None

    # -------------------------- conversions ---------------------------- #

    def _to_source_equiv(self, stage_name: str, events: float) -> float:
        """Convert events observed at a stage input into source events."""
        return events * self._stage_equiv_factor.get(stage_name, 1.0)

    def to_source_equivalents(self, stage_name: str, events: float) -> float:
        """Public conversion: stage-input events -> source events."""
        return self._to_source_equiv(stage_name, events)

    def sink_source_equiv(self, sink_events: float) -> float:
        """Convert sink emissions into source-equivalents (Section 8.3)."""
        return sink_events / self._plan_selectivity


class WorkloadModel:
    """Minimal interface the engine requires of a workload.

    Concrete workloads live in :mod:`repro.workloads`; this base class exists
    so the engine module does not import them (no circular dependency) and so
    tests can plug in trivial constant-rate workloads.
    """

    def generation_rates(
        self, source_stages: Sequence[str], t_s: float
    ) -> list[float]:
        """Raw events/second generated at each of ``source_stages`` at
        ``t_s``, in order.  The engine reads every source's rate with one
        call per tick; a workload with a schedule overrides this to read
        it once for all sources.  The default asks :meth:`generation_eps`
        source by source, so a workload overrides one of the two."""
        return [self.generation_eps(name, t_s) for name in source_stages]

    def generation_eps(self, source_stage: str, t_s: float) -> float:
        """Raw events/second generated at the given source stage."""
        return self.generation_rates((source_stage,), t_s)[0]
