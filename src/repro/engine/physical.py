"""Physical plans: stages, tasks and operator chaining.

A query's physical plan consists of execution stages, each running as
parallel tasks (Section 2.1).  Like Flink, consecutive narrow stateless
operators are *chained* into a single stage so that record-at-a-time
transformations (filter, map, project) execute inside their upstream task
without crossing the network - this is also where logical filter-pushdown
pays off: a filter chained into its source stage reduces the rate leaving
the source site.

A stage is named after its *head* operator.  Because alternative logical
plans share operator names exactly where they share sub-plans, stage names
are stable across re-planning and the engine can carry queues and state over
for the common part (Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..counters import VersionCounter
from ..errors import PlanError
from .logical import LogicalPlan
from .operators import OperatorSpec


@dataclass
class Task:
    """One execution instance of a stage, occupying one computing slot."""

    stage_name: str
    site: str


@dataclass
class Stage:
    """A pipeline of chained operators executed by parallel tasks.

    Attributes:
        name: Equal to the head operator's name.
        operators: The chained operators, head first.
        tasks: Current execution instances.  ``len(tasks)`` is the stage
            parallelism ``p``.
        initial_parallelism: Parallelism at first deployment; the policy's
            ``p' > p_max`` check compares against this baseline.
    """

    name: str
    operators: list[OperatorSpec]
    tasks: list[Task] = field(default_factory=list)
    initial_parallelism: int = 0
    #: Monotonic mutation counter.  Every task-set change bumps it, so the
    #: engine can cache anything derived from the placement (sorted site
    #: lists, fan-out fractions, per-site task counts) and invalidate on
    #: version mismatch.  All task mutations must go through the methods
    #: below - never mutate ``tasks`` directly.
    version: int = 0
    #: The owning plan's mutation counter, bumped with ``version`` (see
    #: :meth:`PhysicalPlan.mutation_version`).
    _plan_mutations: VersionCounter = field(
        default_factory=VersionCounter, repr=False, compare=False
    )

    # -------------------------- combined properties -------------------- #

    @property
    def head(self) -> OperatorSpec:
        return self.operators[0]

    @property
    def tail(self) -> OperatorSpec:
        return self.operators[-1]

    @property
    def is_source(self) -> bool:
        return self.head.is_source

    @property
    def is_sink(self) -> bool:
        return self.tail.is_sink

    @property
    def pinned_site(self) -> str | None:
        return self.head.pinned_site

    @property
    def selectivity(self) -> float:
        result = 1.0
        for op in self.operators:
            result *= op.selectivity
        return result

    @property
    def cost(self) -> float:
        """CPU work per *ingested* event across the chain.

        Later operators in the chain only see the events surviving earlier
        selectivities, so their cost is discounted accordingly.
        """
        total, surviving = 0.0, 1.0
        for op in self.operators:
            total += op.cost * surviving
            surviving *= op.selectivity
        return max(total, 1e-9)

    @property
    def output_event_bytes(self) -> float:
        return self.tail.event_bytes

    @property
    def stateful(self) -> bool:
        return any(op.stateful for op in self.operators)

    @property
    def state_mb(self) -> float:
        return sum(op.state_mb for op in self.operators)

    @property
    def splittable(self) -> bool:
        return all(op.splittable for op in self.operators)

    @property
    def window_s(self) -> float:
        return max((op.window_s for op in self.operators), default=0.0)

    @property
    def parallelism(self) -> int:
        return len(self.tasks)

    # -------------------------- task management ------------------------ #

    def placement(self) -> dict[str, int]:
        """Tasks per site (``p[s]``), sites with zero tasks omitted."""
        counts: dict[str, int] = {}
        for task in self.tasks:
            counts[task.site] = counts.get(task.site, 0) + 1
        return counts

    def sites(self) -> list[str]:
        return sorted(self.placement())

    def _mutated(self) -> None:
        """Bump this stage's and its plan's version (every task mutator)."""
        self.version += 1
        self._plan_mutations.value += 1

    def add_task(self, site: str) -> Task:
        task = Task(stage_name=self.name, site=site)
        self.tasks.append(task)
        self._mutated()
        return task

    def remove_task_at(self, site: str) -> Task:
        for i, task in enumerate(self.tasks):
            if task.site == site:
                self._mutated()
                return self.tasks.pop(i)
        raise PlanError(f"stage {self.name!r} has no task at site {site!r}")

    def set_tasks(self, tasks: list[Task]) -> None:
        """Replace the whole task set (transaction rollback)."""
        self.tasks[:] = tasks
        self._mutated()

    def clear_tasks(self) -> None:
        """Drop every task (undeploy / abandoned-plan cleanup)."""
        self.tasks.clear()
        self._mutated()


class PhysicalPlan:
    """Stages and their data-flow edges for one logical plan."""

    def __init__(self, logical: LogicalPlan, *, chaining: bool = True) -> None:
        self.logical = logical
        self.stages: dict[str, Stage] = {}
        self._member_of: dict[str, str] = {}
        #: Shared by every stage: each task mutation bumps it once.
        self._mutations = VersionCounter()
        self._build_stages(chaining)
        self.stage_edges: list[tuple[str, str]] = self._build_edges()
        self._up: dict[str, list[str]] = {name: [] for name in self.stages}
        self._down: dict[str, list[str]] = {name: [] for name in self.stages}
        for src, dst in self.stage_edges:
            self._down[src].append(dst)
            self._up[dst].append(src)
        self._topo = self._stage_topological_order()
        # The stage graph is immutable after construction (only task sets
        # change), so the derived stage lists are built exactly once.
        self._topo_stages = [self.stages[name] for name in self._topo]
        self._source_stages = [s for s in self._topo_stages if s.is_source]

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def _build_stages(self, chaining: bool) -> None:
        logical = self.logical
        for op in logical.topological():
            if chaining and self._can_chain(op):
                upstream_op = logical.upstream(op.name)[0]
                stage = self.stages[self._member_of[upstream_op.name]]
                stage.operators.append(op)
                self._member_of[op.name] = stage.name
            else:
                stage = Stage(
                    name=op.name,
                    operators=[op],
                    _plan_mutations=self._mutations,
                )
                self.stages[op.name] = stage
                self._member_of[op.name] = op.name

    def _can_chain(self, op: OperatorSpec) -> bool:
        """Chain ``op`` into its upstream when the link is one-to-one and the
        operator is a narrow stateless transformation."""
        if not op.chainable:
            return False
        upstream = self.logical.upstream(op.name)
        if len(upstream) != 1:
            return False
        return len(self.logical.downstream(upstream[0].name)) == 1

    def _build_edges(self) -> list[tuple[str, str]]:
        edges: set[tuple[str, str]] = set()
        for src, dst in self.logical.edges:
            src_stage = self._member_of[src]
            dst_stage = self._member_of[dst]
            if src_stage != dst_stage:
                edges.add((src_stage, dst_stage))
        return sorted(edges)

    def _stage_topological_order(self) -> list[str]:
        in_degree = {name: len(self._up[name]) for name in self.stages}
        ready = sorted(n for n, d in in_degree.items() if d == 0)
        order: list[str] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for succ in sorted(self._down[node]):
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
            ready.sort()
        if len(order) != len(self.stages):
            raise PlanError("stage graph contains a cycle")
        return order

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    def stage(self, name: str) -> Stage:
        try:
            return self.stages[name]
        except KeyError:
            raise PlanError(f"unknown stage {name!r}") from None

    def topological_stages(self) -> list[Stage]:
        """Stages in topological order (cached; do not mutate)."""
        return self._topo_stages

    def upstream_stages(self, name: str) -> list[Stage]:
        return [self.stages[u] for u in self._up[name]]

    def downstream_stages(self, name: str) -> list[Stage]:
        return [self.stages[d] for d in self._down[name]]

    def source_stages(self) -> list[Stage]:
        """Source stages in topological order (cached; do not mutate)."""
        return self._source_stages

    def mutation_version(self) -> int:
        """Monotonic counter over every stage's task mutations.

        Every stage mutator bumps the plan's one shared counter along with
        the stage's own ``version``, so this is the sum of the stage
        versions, read in O(1): it strictly increases on any placement
        change anywhere in the plan - the validity token for
        placement-derived caches.
        """
        return self._mutations.value

    def __iter__(self) -> Iterator[Stage]:
        return iter(self.topological_stages())

    def total_parallelism(self) -> int:
        return sum(s.parallelism for s in self.stages.values())

    def expected_stage_rates(
        self, source_generation_eps: dict[str, float]
    ) -> dict[str, dict[str, float]]:
        """Expected input/output rate per stage from raw generation rates.

        Args:
            source_generation_eps: Raw events/s generated at each source
                stage (before any chained source-side filters), keyed by
                stage name.

        Returns:
            ``{stage: {"input": eps, "output": eps}}`` - the lambda-hat
            recursion of Section 3.3 lifted to stages; each stage's output is
            its input times the chained selectivity.
        """
        rates: dict[str, dict[str, float]] = {}
        for stage in self.topological_stages():
            if stage.is_source:
                gen = float(source_generation_eps.get(stage.name, 0.0))
                rates[stage.name] = {
                    "input": gen,
                    "output": gen * stage.selectivity,
                }
            else:
                inflow = sum(
                    rates[u.name]["output"]
                    for u in self.upstream_stages(stage.name)
                )
                rates[stage.name] = {
                    "input": inflow,
                    "output": inflow * stage.selectivity,
                }
        return rates
