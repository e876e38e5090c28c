"""Runtime invariant checking for fuzzed runs.

:class:`InvariantChecker` attaches to an
:class:`~repro.experiments.harness.ExperimentRun` twice over: as an obs
sink it sees the full adaptation lifecycle (snapshots, commits, rollbacks,
migrations, chaos faults, checkpoint restores), and through the harness's
``on_report``/``on_step_end`` hooks it sees every
:class:`~repro.engine.runtime.TickReport` plus a quiesced end-of-step
state.  From those two views it asserts the paper-level properties:

* **conservation** - events are neither created nor destroyed: per stage,
  the queued backlog changes exactly by (arrivals + replay + re-queues)
  minus (processing + SLO drops), per tick.
* **queue/state non-negativity** - no fluid queue, parcel or state
  partition ever goes negative.
* **slot-feasibility** - on every non-failed site, the allocated slots
  are exactly the run's tasks placed there (the ILP's ``A[s]``
  accounting, Section 4.1): fewer is an infeasible placement, more is a
  leaked slot.
* **full-deployment** - every stage of the live plan keeps >= 1 task.
* **alpha-cap** (Section 4.1) - after a committed network-bottleneck
  placement, every WAN flow the placement induces fits within
  ``alpha * B`` of its link.
* **scale-law** (Section 4.2) - a committed scale-up/out lands strictly
  above the old parallelism and at or below the DS2-style target
  ``p' = ceil(lambda_hat_I / lambda_P * p)`` (plus the scale-out link
  deficit bound).
* **migration-minmax** (Section 5) - a committed WASP-strategy
  re-assignment's migration achieves the minmax over destination
  assignments; transfer arithmetic (``duration = MB * 8 / Mbps``,
  ``transition = max duration``) always holds.
* **rollback-digest** - a rolled-back attempt restores the pre-action
  snapshot bit-for-bit (slots, task lists, queues, suspensions, state,
  checkpoint records, loss counter).

Scoping notes (to stay false-positive-free): the alpha-cap check runs only
on the *first* commit of a round, on ``primary`` attempts, for
network-bottleneck re-assign/scale-out actions - retries re-measure
bandwidth and later commits shift the upstream/downstream placements the
decision saw.  The minmax check runs only for primary WASP re-assignments
with <= 7 unique-source transfers (the exhaustive-permutation regime) and
verifies the optimum over permutations of the *observed* destinations, a
sound necessary condition for optimality over the full destination set.
Conservation is skipped on ticks where a chaos fault fired (faults may
mutate queue state outside the tick accounting).

Cost: the per-tick checks share one ``iter_queues()`` walk, and that walk
doubles as the next conservation baseline whenever the clock advance
between ``on_report`` and ``on_step_end`` fired no periodic callback
(DESIGN.md section 9 explains why that reuse is exact).
"""

from __future__ import annotations

import hashlib
import itertools
import math
import weakref
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable

from ..core.scaling import compute_scale_out_target, compute_scale_up_target
from ..engine.runtime import MBIT_BYTES, TickReport
from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..experiments.harness import ExperimentRun

#: Invariant identifiers, in reporting order.
INVARIANTS = (
    "conservation",
    "queue-nonnegative",
    "state-nonnegative",
    "slot-feasibility",
    "full-deployment",
    "alpha-cap",
    "scale-law",
    "migration-minmax",
    "migration-arithmetic",
    "rollback-digest",
    "replay-digest",
    "crash",
)


@dataclass(frozen=True)
class Violation:
    """One observed invariant violation."""

    invariant: str
    t_s: float
    detail: str

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "t_s": self.t_s,
            "detail": self.detail,
        }


def _no_run() -> None:
    """The unbound checker's run reference: no run."""
    return None


#: The conservation tolerance ``1e-3 + 1e-7 * scale`` at its least scale.
_CONSERVATION_FLOOR = 1e-3 + 1e-7


class _PlanTables:
    """Placement-derived lookups for one (plan, mutation version)."""

    __slots__ = (
        "plan",
        "version",
        "stage_names",
        "deployed_downstream",
        "tasks_at",
        "undeployed",
    )

    def __init__(self, plan, version: int) -> None:
        self.plan = plan
        self.version = version
        self.stage_names = tuple(plan.stages)
        #: Per stage: its downstream stages with >= 1 task, edge order.
        self.deployed_downstream = {
            name: tuple(
                down.name
                for down in plan.downstream_stages(name)
                if down.parallelism > 0
            )
            for name in plan.stages
        }
        #: Tasks placed per site, summed over every stage.
        self.tasks_at: dict[str, int] = {}
        for stage in plan.stages.values():
            for site, count in stage.placement().items():
                self.tasks_at[site] = self.tasks_at.get(site, 0) + count
        self.undeployed = tuple(
            name for name, stage in plan.stages.items()
            if stage.parallelism < 1
        )


class InvariantChecker:
    """Obs sink + harness hook asserting per-tick/per-adaptation invariants.

    Attach via :meth:`ExperimentRun.attach_checker`.  Violations are
    collected (never raised) so a fuzz campaign can keep running and report
    every class of failure a scenario provokes.
    """

    def __init__(self) -> None:
        self.violations: list[Violation] = []
        #: The checked run, by weak reference (see :meth:`bind`).
        self._run: Callable[[], "ExperimentRun | None"] = _no_run
        # Conservation bookkeeping.
        self._baseline: dict[str, float] | None = None
        self._replay_in: dict[str, float] = {}
        self._chaos_this_step = False
        #: ``(clock tick index, pending tally)`` from the last on_report,
        #: until on_step_end consumes it.
        self._report_pass: tuple[int, dict[str, float]] | None = None
        self._tables: _PlanTables | None = None
        # Adaptation bookkeeping.
        self._round_parallelism: dict[str, int] = {}
        self._commits_in_round = 0
        self._pre_digest: str | None = None
        self._current_attempt: str | None = None
        self._migrate_strategy: str | None = None
        self._migrate_transfers: list[dict] = []
        self._migrate_end: dict | None = None
        self.ticks_checked = 0
        #: How often each invariant was actually *evaluated* (scoped checks
        #: skip silently, so zero violations is only meaningful alongside
        #: nonzero exercise counts).
        self.checks: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def bind(self, run: "ExperimentRun") -> None:
        """Check ``run``; raises if still checking another live run.

        The run holds the checker (as its bus sink and step hook), so the
        checker holds the run weakly: a strong back-reference would make
        every checked run cyclic garbage.  The findings (``violations``,
        ``checks``, ``ticks_checked``) outlive the run.
        """
        if self._run() is not None:
            raise ConfigurationError(
                "checker is already bound to a live run; build a new "
                "InvariantChecker per run"
            )
        self._run = weakref.ref(run)

    def close(self) -> None:  # Sink protocol
        pass

    def counts(self) -> dict[str, int]:
        """Violation count per invariant (zero entries omitted)."""
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.invariant] = out.get(v.invariant, 0) + 1
        return out

    def _violate(self, invariant: str, t_s: float, detail: str) -> None:
        self.violations.append(Violation(invariant, float(t_s), detail))

    def _mark(self, invariant: str, n: int = 1) -> None:
        self.checks[invariant] = self.checks.get(invariant, 0) + n

    # ------------------------------------------------------------------ #
    # Obs sink: adaptation lifecycle
    # ------------------------------------------------------------------ #

    def write(self, record: dict) -> None:  # Sink protocol
        kind = record.get("kind")
        if kind == "restore":
            stage = record["stage"]
            self._replay_in[stage] = (
                self._replay_in.get(stage, 0.0) + float(record["events"])
            )
        elif kind == "chaos.fault":
            self._chaos_this_step = True
        elif kind == "round.start":
            run = self._run()
            if run is not None:
                self._round_parallelism = {
                    name: stage.parallelism
                    for name, stage in run.runtime.plan.stages.items()
                }
            self._commits_in_round = 0
        elif kind == "attempt.start":
            self._current_attempt = record["attempt"]
            self._migrate_transfers = []
            self._migrate_strategy = None
            self._migrate_end = None
        elif kind == "snapshot":
            self._pre_digest = self._state_digest()
        elif kind == "migrate.start":
            self._migrate_strategy = record["strategy"]
            self._migrate_transfers = []
        elif kind == "migrate.transfer":
            self._migrate_transfers.append(record)
        elif kind == "migrate.end":
            self._migrate_end = record
            self._check_migration_arithmetic(record)
        elif kind == "rollback":
            self._check_rollback_digest(record)
            self._pre_digest = None
            self._migrate_transfers = []
        elif kind == "commit":
            self._check_commit(record)
            self._commits_in_round += 1
            self._pre_digest = None
            self._migrate_transfers = []

    # ------------------------------------------------------------------ #
    # Harness hooks: per-tick checks
    # ------------------------------------------------------------------ #

    def on_report(self, report: TickReport) -> None:
        """Per-tick checks, after the engine ticked and before callbacks."""
        run = self._run()
        if run is None:
            return
        self.ticks_checked += 1
        tables = self._plan_tables()
        pending = self._check_nonnegative(report.t_s)
        self._check_conservation(report, pending, tables)
        self._report_pass = (run.clock.tick_index, pending)

    def on_step_end(self) -> None:
        """End-of-step checks, after any adaptation round completed."""
        run = self._run()
        if run is None:
            return
        # Between on_report and here only the clock advanced.  If that
        # advance fired no periodic callback (adaptation rounds,
        # checkpoints, background planners), neither the queues nor the
        # plan can have moved, so on_report's queue tally and plan tables
        # are still current.
        clock = run.clock
        last = self._report_pass
        self._report_pass = None
        quiet = (
            last is not None
            and last[0] + 1 == clock.tick_index
            and clock.callbacks_fired == 0
        )
        tables = self._tables if quiet else self._plan_tables()
        t_s = run.runtime.now_s
        self._check_slots(t_s, tables)
        self._check_deployment(t_s, tables)
        self._check_state_nonnegative(t_s)
        # The next tick's conservation baseline is the state now.
        self._baseline = last[1] if quiet else self._pending_by_stage()
        self._replay_in = {}
        self._chaos_this_step = False

    # ------------------------------------------------------------------ #
    # Per-tick invariants
    # ------------------------------------------------------------------ #

    def _plan_tables(self) -> _PlanTables:
        """Placement-derived tables for the live plan, rebuilt only when
        the plan object or its :meth:`mutation_version` changes."""
        run = self._run()
        assert run is not None
        plan = run.runtime.plan
        version = plan.mutation_version()
        tables = self._tables
        if tables is None or tables.plan is not plan or (
            tables.version != version
        ):
            tables = self._tables = _PlanTables(plan, version)
        return tables

    def _pending_by_stage(self, t_s: float | None = None) -> dict[str, float]:
        """Per stage: events pending in its gen/input queues plus in-flight
        WAN queues destined for it.

        With ``t_s``, the same walk also screens every queue for a
        negative total or parcel, reading the count column in place; a
        queue that fails the screen (or whose head parcel is NaN, which
        hides the rest from ``min``) is re-examined parcel by parcel.
        """
        run = self._run()
        assert run is not None
        pending: dict[str, float] = {}
        get = pending.get
        for table, key, queue in run.runtime.iter_queues():
            stage = key[1] if table == "net" else key[0]
            count, low = queue.count_and_min()
            pending[stage] = get(stage, 0.0) + count
            if (count < -1e-6 or not low >= -1e-9) and t_s is not None:
                self._report_negative(t_s, table, key, queue)
        return pending

    def _report_negative(self, t_s: float, table: str, key, queue) -> None:
        """``queue-nonnegative`` violations of one queue, with details."""
        if queue.count < -1e-6:
            self._violate(
                "queue-nonnegative",
                t_s,
                f"{table} queue {key} has count {queue.count!r}",
            )
        for parcel in queue.parcels():
            if parcel.count < -1e-9:
                self._violate(
                    "queue-nonnegative",
                    t_s,
                    f"{table} queue {key} holds negative parcel "
                    f"{parcel.count!r}",
                )
                break

    def _check_nonnegative(self, t_s: float) -> dict[str, float]:
        """``queue-nonnegative`` over every queue; returns the pending
        tally the same walk produced (see :meth:`_pending_by_stage`)."""
        self._mark("queue-nonnegative")
        return self._pending_by_stage(t_s)

    def _check_conservation(
        self,
        report: TickReport,
        pending: dict[str, float],
        tables: _PlanTables,
    ) -> None:
        baseline = self._baseline
        if baseline is None or self._chaos_this_step:
            return
        self._mark("conservation")
        # Arrivals from upstream emissions: every *deployed* downstream
        # stage receives each upstream's full emitted stream (balanced
        # partitioning, Section 7); undeployed downstreams re-queue at the
        # sender and are accounted by ``report.requeued``.
        fanout = tables.deployed_downstream
        from_upstream: dict[str, float] = {}
        for name, emitted in report.emitted.items():
            for down in fanout.get(name, ()):
                from_upstream[down] = from_upstream.get(down, 0.0) + emitted
        # Screen every stage against inflow/outflow sums built in one pass
        # over each (mostly sparse) report dict.  A term a stage lacks is
        # 0.0 in the ledger, and adding 0.0 changes no value (at most the
        # sign of a zero), so the screen's gap is the ledger's.  A stage
        # failing the screen goes through the term-by-term ledger, which
        # decides the verdict and words the detail.
        inflow = dict(report.offered_by_source)
        for terms in (from_upstream, report.requeued, self._replay_in):
            for name, x in terms.items():
                inflow[name] = inflow.get(name, 0.0) + x
        outflow = dict(report.processed)
        for terms in (report.dropped_raw_input, report.dropped_raw_net):
            for name, x in terms.items():
                outflow[name] = outflow.get(name, 0.0) + x
        get_in = inflow.get
        get_out = outflow.get
        get_pending = pending.get
        for name in tables.stage_names:
            before = baseline.get(name)
            if before is None:
                continue
            gap = abs(
                get_pending(name, 0.0)
                - (before + get_in(name, 0.0) - get_out(name, 0.0))
            )
            # The tolerance ``1e-3 + 1e-7 * scale`` has scale >= 1, so a
            # gap within its scale-1 value passes at any scale.
            if gap > _CONSERVATION_FLOOR:
                self._conservation_ledger(
                    report, name, before, pending, from_upstream
                )

    def _conservation_ledger(
        self,
        report: TickReport,
        name: str,
        before: float,
        pending: dict[str, float],
        from_upstream: dict[str, float],
    ) -> None:
        """One stage's conservation ledger, term by term."""
        now = pending.get(name, 0.0)
        inflow = (
            report.offered_by_source.get(name, 0.0)
            + from_upstream.get(name, 0.0)
            + report.requeued.get(name, 0.0)
            + self._replay_in.get(name, 0.0)
        )
        outflow = (
            report.processed.get(name, 0.0)
            + report.dropped_raw_input.get(name, 0.0)
            + report.dropped_raw_net.get(name, 0.0)
        )
        expected = before + inflow - outflow
        scale = max(1.0, abs(before), abs(now), abs(inflow), abs(outflow))
        if abs(now - expected) > 1e-3 + 1e-7 * scale:
            self._violate(
                "conservation",
                report.t_s,
                f"stage {name!r}: pending {now!r} != expected "
                f"{expected!r} (before={before!r} inflow={inflow!r} "
                f"outflow={outflow!r})",
            )

    def _check_slots(self, t_s: float, tables: _PlanTables) -> None:
        run = self._run()
        assert run is not None
        self._mark("slot-feasibility")
        tasks_at = tables.tasks_at
        for site in run.topology:
            used = site.used_slots
            if used < 0:
                self._violate(
                    "slot-feasibility",
                    t_s,
                    f"site {site.name!r} has negative used slots {used}",
                )
            if site.failed:
                continue
            placed = tasks_at.get(site.name, 0)
            if placed > used:
                self._violate(
                    "slot-feasibility",
                    t_s,
                    f"site {site.name!r} hosts {placed} tasks but only "
                    f"{used} slots are allocated",
                )
            elif used > placed:
                self._violate(
                    "slot-feasibility",
                    t_s,
                    f"site {site.name!r} holds {used} allocated slots for "
                    f"{placed} tasks (leaked slots)",
                )

    def _check_deployment(self, t_s: float, tables: _PlanTables) -> None:
        self._mark("full-deployment")
        for name in tables.undeployed:
            self._violate(
                "full-deployment",
                t_s,
                f"stage {name!r} has no deployed tasks",
            )

    def _check_state_nonnegative(self, t_s: float) -> None:
        run = self._run()
        assert run is not None
        self._mark("state-nonnegative")
        for stage_name in run.state_store.stage_names():
            for part in run.state_store.partitions(stage_name):
                if part.size_mb < -1e-9:
                    self._violate(
                        "state-nonnegative",
                        t_s,
                        f"stage {stage_name!r} partition at "
                        f"{part.site!r} has size {part.size_mb!r} MB",
                    )

    # ------------------------------------------------------------------ #
    # Rollback digest
    # ------------------------------------------------------------------ #

    def _state_digest(self) -> str:
        """SHA-256 over everything an adaptation transaction restores.

        Mirrors :class:`~repro.core.transaction.AdaptationTransaction`:
        slot accounting, per-stage task placements, every queue's parcels,
        suspensions, state partitions, checkpoint records and the loss
        counter.  ``repr`` of floats is exact, so digests match iff the
        restorable state is bit-identical.
        """
        run = self._run()
        assert run is not None
        h = hashlib.sha256()
        for site, used in sorted(run.topology.slot_snapshot().items()):
            h.update(f"slot|{site}|{used}\n".encode())
        plan = run.runtime.plan
        for name in sorted(plan.stages):
            sites = sorted(t.site for t in plan.stages[name].tasks)
            h.update(f"tasks|{name}|{sites}\n".encode())
            h.update(
                f"susp|{name}|{run.runtime.suspended_until(name)!r}\n".encode()
            )
        for table, key, queue in run.runtime.iter_queues():
            parcels = ";".join(
                f"{p.count!r}@{p.gen_time_s!r}" for p in queue.parcels()
            )
            h.update(f"queue|{table}|{key}|{parcels}\n".encode())
        for stage_name in run.state_store.stage_names():
            for part in sorted(
                run.state_store.partitions(stage_name),
                key=lambda p: (p.site, p.size_mb),
            ):
                h.update(
                    f"state|{stage_name}|{part.site}|{part.size_mb!r}\n"
                    .encode()
                )
        for key, rec in sorted(run.checkpoints.snapshot_records().items()):
            h.update(
                f"ckpt|{key}|{rec.size_mb!r}|{rec.taken_at_s!r}\n".encode()
            )
        if run.manager is not None:
            h.update(f"lost|{run.manager.state_lost_mb!r}\n".encode())
        return h.hexdigest()

    def _check_rollback_digest(self, record: dict) -> None:
        if self._pre_digest is None:
            return
        self._mark("rollback-digest")
        post = self._state_digest()
        if post != self._pre_digest:
            self._violate(
                "rollback-digest",
                record["t_s"],
                f"stage {record['stage']!r} attempt "
                f"{record['attempt']!r}: state after rollback differs "
                f"from the pre-action snapshot",
            )

    # ------------------------------------------------------------------ #
    # Commit-scoped invariants
    # ------------------------------------------------------------------ #

    def _check_commit(self, record: dict) -> None:
        run = self._run()
        if run is None or run.manager is None:
            return
        t_s = record["t_s"]
        stage_name = record["stage"]
        attempt = record["attempt"]
        action = record["action"]
        reason = record.get("reason") or ""
        stage = run.runtime.plan.stages.get(stage_name)
        if stage is not None and action != "re-plan":
            placement = stage.placement()
            if sum(placement.values()) < 1:
                self._violate(
                    "full-deployment",
                    t_s,
                    f"commit of {action!r} left {stage_name!r} undeployed",
                )
            for site in placement:
                if run.topology.site(site).failed:
                    self._violate(
                        "full-deployment",
                        t_s,
                        f"commit of {action!r} placed {stage_name!r} on "
                        f"failed site {site!r}",
                    )
        if (
            attempt == "primary"
            and self._commits_in_round == 0
            and action in ("re-assign", "scale out")
            and reason.startswith("network bottleneck")
            and stage is not None
        ):
            self._check_alpha_cap(t_s, stage)
        if attempt == "primary" and action in ("scale up", "scale out"):
            self._check_scale_law(t_s, stage_name, action, reason)
        if (
            attempt == "primary"
            and action == "re-assign"
            and self._migrate_strategy == "wasp"
            and self._migrate_transfers
        ):
            self._check_migration_minmax(t_s, stage_name)

    def _check_alpha_cap(self, t_s: float, stage) -> None:
        """Section 4.1: committed placements respect ``alpha * B`` per flow.

        Re-derives the flows the committed placement induces from the same
        inputs the policy used (the round's window estimates and the WAN
        monitor's cached measurements, both unchanged on a first-commit
        primary attempt) and checks each against its link cap.
        """
        run = self._run()
        assert run is not None and run.manager is not None
        manager = run.manager
        window = getattr(manager, "last_window", None)
        if window is None:
            return
        self._mark("alpha-cap")
        plan = run.runtime.plan
        estimates = manager.estimator.estimate(plan, window)
        alpha = manager.config.alpha
        placement = stage.placement()
        p = max(1, sum(placement.values()))
        flows = manager.estimator.upstream_flows_eps(plan, stage, estimates)
        for site, count in sorted(placement.items()):
            share = count / p
            for (up_name, up_site), eps in sorted(flows.items()):
                if up_site == site or eps <= 0:
                    continue
                up_stage = plan.stages.get(up_name)
                if up_stage is None:
                    continue
                cap_eps = (
                    alpha
                    * manager.network.bandwidth_mbps(up_site, site)
                    * MBIT_BYTES
                    / up_stage.output_event_bytes
                )
                flow_eps = eps * share
                if flow_eps > cap_eps * (1 + 1e-9) + 1e-9:
                    self._violate(
                        "alpha-cap",
                        t_s,
                        f"stage {stage.name!r}: upstream flow "
                        f"{up_name!r}@{up_site!r} -> {site!r} carries "
                        f"{flow_eps:.1f} eps > alpha cap {cap_eps:.1f} eps",
                    )
            estimate = estimates.get(stage.name)
            out_eps = estimate.output_eps if estimate is not None else 0.0
            if out_eps <= 0:
                continue
            for down in plan.downstream_stages(stage.name):
                dplace = down.placement()
                total = sum(dplace.values())
                if total == 0:
                    continue
                for dst_site, dcount in sorted(dplace.items()):
                    if dst_site == site:
                        continue
                    cap_eps = (
                        alpha
                        * manager.network.bandwidth_mbps(site, dst_site)
                        * MBIT_BYTES
                        / stage.output_event_bytes
                    )
                    flow_eps = out_eps * (dcount / total) * share
                    if flow_eps > cap_eps * (1 + 1e-9) + 1e-9:
                        self._violate(
                            "alpha-cap",
                            t_s,
                            f"stage {stage.name!r}: downstream flow "
                            f"{site!r} -> {down.name!r}@{dst_site!r} "
                            f"carries {flow_eps:.1f} eps > alpha cap "
                            f"{cap_eps:.1f} eps",
                        )

    def _check_scale_law(
        self, t_s: float, stage_name: str, action: str, reason: str
    ) -> None:
        """Section 4.2: committed parallelism obeys the scaling formulas.

        The committed ``p'`` may fall below the decision target (partial
        slot availability, feasibility-capped scale-out) but must be
        strictly above the old ``p`` and never exceed the bound the round's
        own diagnosis implies.
        """
        run = self._run()
        assert run is not None and run.manager is not None
        manager = run.manager
        old_p = self._round_parallelism.get(stage_name)
        diagnosis = getattr(manager, "last_diagnoses", {}).get(stage_name)
        stage = run.runtime.plan.stages.get(stage_name)
        if old_p is None or diagnosis is None or stage is None:
            return
        self._mark("scale-law")
        new_p = stage.parallelism
        proxy = SimpleNamespace(name=stage_name, parallelism=old_p)
        if action == "scale up":
            bound = compute_scale_up_target(
                proxy, diagnosis, manager.config
            ).target
        else:  # scale out
            bound = max(
                compute_scale_out_target(
                    proxy, diagnosis, manager.config
                ).target,
                old_p + 1,
            )
        if not (old_p < new_p <= bound):
            self._violate(
                "scale-law",
                t_s,
                f"stage {stage_name!r}: {action} committed p={new_p} "
                f"outside (p={old_p}, bound={bound}] ({reason})",
            )

    # ------------------------------------------------------------------ #
    # Migration invariants
    # ------------------------------------------------------------------ #

    def _check_migration_arithmetic(self, end_record: dict) -> None:
        """``duration = MB * 8 / Mbps`` per transfer; transition = max."""
        t_s = end_record["t_s"]
        self._mark("migration-arithmetic")
        durations = []
        for rec in self._migrate_transfers:
            size = rec["size_mb"]
            bw = rec["bandwidth_mbps"]
            duration = rec["duration_s"]
            durations.append(duration)
            if size <= 0:
                expected = 0.0
            elif bw <= 0:
                expected = math.inf
            else:
                expected = size * 8.0 / bw
            if not self._close(duration, expected):
                self._violate(
                    "migration-arithmetic",
                    t_s,
                    f"transfer {rec['from_site']!r}->{rec['to_site']!r}: "
                    f"duration {duration!r} != {size!r} MB * 8 / "
                    f"{bw!r} Mbps = {expected!r}",
                )
        transition = end_record["transition_s"]
        expected = max(durations, default=0.0)
        if not self._close(transition, expected):
            self._violate(
                "migration-arithmetic",
                t_s,
                f"stage {end_record['stage']!r}: transition "
                f"{transition!r} != slowest transfer {expected!r}",
            )

    def _check_migration_minmax(self, t_s: float, stage_name: str) -> None:
        """Section 5: the committed mapping minimizes the slowest transfer.

        Sound necessary condition: every permutation of the *observed*
        destination multiset was in the optimizer's candidate set, so the
        observed makespan must not exceed the best such permutation.
        Skipped when the transfer set leaves the exhaustive-permutation
        regime (> 7 moves), splits a source partition (rebalance-style
        plans are greedy by design), or the monitor's bandwidth view
        drifted from the values stamped on the transfers.
        """
        run = self._run()
        assert run is not None and run.manager is not None
        transfers = self._migrate_transfers
        if not (1 <= len(transfers) <= 7):
            return
        sources = [(r["from_site"], r["size_mb"]) for r in transfers]
        if len({s for s, _ in sources}) != len(sources):
            return
        destinations = [r["to_site"] for r in transfers]
        bandwidth = run.manager.migration_bandwidth
        for rec in transfers:
            live = bandwidth(rec["from_site"], rec["to_site"])
            if not self._close(live, rec["bandwidth_mbps"]):
                return
        self._mark("migration-minmax")
        observed = 0.0
        for rec in transfers:
            observed = max(observed, rec["duration_s"])
        best = math.inf
        for perm in set(itertools.permutations(destinations)):
            worst = 0.0
            for (src, size), dst in zip(sources, perm):
                bw = bandwidth(src, dst)
                if size <= 0:
                    continue
                if bw <= 0:
                    worst = math.inf
                    break
                worst = max(worst, size * 8.0 / bw)
            best = min(best, worst)
        if observed > best * (1 + 1e-9) + 1e-9:
            self._violate(
                "migration-minmax",
                t_s,
                f"stage {stage_name!r}: observed makespan {observed!r} s "
                f"exceeds the minmax {best!r} s over destination "
                f"permutations",
            )

    @staticmethod
    def _close(a: float, b: float, rel: float = 1e-9) -> bool:
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
