"""Multi-query execution over a shared WAN (Sections 2.1 and 3.2).

The Job Manager serves many long-running queries on the same
geo-distributed infrastructure, and the paper explicitly lists "bandwidth
contention with other executions" among the causes of network bottlenecks.
:class:`MultiQueryRun` co-schedules several :class:`ExperimentRun` instances
on **one** topology:

* computing slots are shared automatically (every scheduler allocates from
  the same :class:`~repro.network.topology.Topology`);
* WAN links are shared through a per-tick byte budget passed to every
  engine, so one query's traffic genuinely eats into another's capacity;
* link budgets are granted in a rotating order, so no query permanently
  wins the FCFS race within a tick;
* each query keeps its own controller - adaptations are per-query, exactly
  as in the paper's architecture (the Reconfiguration Manager adapts
  *queries*, the infrastructure is shared).

Cross-query contention thus becomes endogenous: when query A scales out
onto a link that query B depends on, B's monitor sees the bandwidth drop
and B's controller reacts - no driver injection required.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines.variants import VariantSpec
from ..config import WaspConfig
from ..engine.runtime import TICK_S
from ..errors import ConfigurationError
from ..network.topology import Topology
from ..sim.recorder import RunRecorder
from ..sim.rng import RngRegistry
from ..workloads.queries import BenchmarkQuery
from .harness import DynamicsSpec, ExperimentRun


@dataclass(frozen=True)
class QuerySubmission:
    """One query entering the shared cluster."""

    query: BenchmarkQuery
    variant: VariantSpec
    #: Simulated time at which the query is deployed and starts running.
    start_s: float = 0.0

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ConfigurationError("start_s must be >= 0")


class MultiQueryRun:
    """Co-schedules several queries on one topology with shared WAN."""

    def __init__(
        self,
        topology: Topology,
        submissions: list[QuerySubmission],
        *,
        config: WaspConfig | None = None,
        rngs: RngRegistry | None = None,
        dynamics: DynamicsSpec | None = None,
    ) -> None:
        if not submissions:
            raise ConfigurationError("need at least one query submission")
        self.topology = topology
        self.config = config or WaspConfig.paper_defaults()
        self.rngs = rngs or RngRegistry(self.config.seed)
        self._submissions = sorted(submissions, key=lambda s: s.start_s)
        self._pending = list(self._submissions)
        self.runs: list[ExperimentRun] = []
        self._now_s = 0.0
        self._rotate = 0
        self._dynamics = dynamics or DynamicsSpec()
        # Deploy everything due at t = 0.
        self._admit_due()

    # ------------------------------------------------------------------ #

    @property
    def now_s(self) -> float:
        return self._now_s

    def recorders(self) -> dict[str, RunRecorder]:
        return {run.recorder.name: run.recorder for run in self.runs}

    def _admit_due(self) -> None:
        while self._pending and self._pending[0].start_s <= self._now_s:
            submission = self._pending.pop(0)
            index = len(self.runs)
            run = ExperimentRun(
                self.topology,
                submission.query,
                submission.variant,
                config=self.config,
                rngs=self.rngs.fork(f"query-{index}"),
            )
            # Only the multi-run applies environment dynamics; sub-runs get
            # an empty spec so faults/bandwidth are not applied twice.
            # (The first admitted run carries the spec - its dynamics hooks
            # mutate the shared topology exactly once per tick.)
            if index == 0:
                run.set_dynamics(self._dynamics)
            self.runs.append(run)

    # ------------------------------------------------------------------ #

    def step(self) -> None:
        """One shared tick: every query's engine draws from one budget."""
        self._now_s += TICK_S
        self._admit_due()
        shared_budget: dict[tuple[str, str], float] = {}
        order = list(range(len(self.runs)))
        if order:
            shift = self._rotate % len(order)
            order = order[shift:] + order[:shift]
        self._rotate += 1
        for index in order:
            self.runs[index].step(shared_budget)

    def run(self, duration_s: float) -> dict[str, RunRecorder]:
        """Advance the whole cluster by ``duration_s`` of simulated time."""
        end_s = self._now_s + duration_s
        while self._now_s + 1e-9 < end_s:
            self.step()
        return self.recorders()
