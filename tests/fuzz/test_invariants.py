"""Detection tests for the fuzz invariant checker.

A checker that never fires is worthless, and the shipped engine is
(deliberately) violation-free, so each test here *injects* one specific
defect - a mass leak, a negative parcel, an over-committed site, a
suboptimal migration mapping, a scale commit outside the Section-4.2
bound - and asserts the matching invariant class, and only it, fires.
A clean-run test pins the flip side: no injected defect, no violations,
with the per-tick checks demonstrably exercised.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

import repro.engine.dense as dense_module
from repro.core.diagnosis import Health, LinkPressure, StageDiagnosis
from repro.engine.metrics import MetricsWindow
from repro.fuzz.campaign import run_scenario
from repro.fuzz.generate import build_run, generate_scenario
from repro.fuzz.invariants import InvariantChecker

from tests.engine import column_routing
from tests.engine.column_routing import ColumnRoutingRuntime
from tests.engine.parcels import drop_oldest


def make_run(seed=1, *, duration_s=None, variant=None, run_for=None):
    """Build a checked run from a generated spec, optionally pre-stepped."""
    spec = generate_scenario(seed)
    if duration_s is not None:
        spec = dataclasses.replace(spec, duration_s=duration_s)
    if variant is not None:
        spec = dataclasses.replace(spec, variant=variant)
    run, dynamics = build_run(spec)
    checker = InvariantChecker()
    run.attach_checker(checker)
    if run_for is not None:
        run.run(run_for, dynamics)
    return run, checker, dynamics


class TestCleanRun:
    def test_no_violations_and_checks_exercised(self):
        run, checker, dynamics = make_run(seed=1, duration_s=60.0)
        run.run(60.0, dynamics)
        assert checker.violations == []
        assert checker.ticks_checked >= 50
        for invariant in (
            "conservation",
            "queue-nonnegative",
            "slot-feasibility",
            "full-deployment",
            "state-nonnegative",
        ):
            assert checker.checks.get(invariant, 0) > 0, invariant


class TestPerTickDetection:
    def test_conservation_catches_wan_mass_leak(self, monkeypatch):
        """Shave 10% off every WAN arrival: the per-stage ledger must
        notice mass vanishing between emission and enqueue."""
        # The runs tick the previous engine, whose WAN transfer goes
        # through a function the leak can wrap.
        monkeypatch.setattr(
            dense_module, "EngineRuntime", ColumnRoutingRuntime
        )
        original = column_routing.transfer_into

        def leaky(src, dst, max_events, extra_age_s):
            moved = original(src, dst, max_events, extra_age_s)
            drop_oldest(dst, moved * 0.1)
            return moved

        monkeypatch.setattr(column_routing, "transfer_into", leaky)
        spec = dataclasses.replace(generate_scenario(0), duration_s=60.0)
        result = run_scenario(spec)
        assert any(v.invariant == "conservation" for v in result.violations)

    def test_queue_nonnegative_catches_negative_parcel(self):
        run, checker, _ = make_run(seed=1, run_for=5.0)
        _table, _key, queue = next(iter(run.runtime.iter_queues()))
        queue._counts.append(-5.0)
        queue._gens.append(0.0)
        checker._check_nonnegative(run.runtime.now_s)
        assert checker.counts().get("queue-nonnegative", 0) >= 1

    def test_slot_feasibility_catches_overcommit(self):
        run, checker, _ = make_run(seed=1, run_for=5.0)
        placed: dict[str, int] = {}
        for stage in run.runtime.plan.stages.values():
            for site, count in stage.placement().items():
                placed[site] = placed.get(site, 0) + count
        victim = next(s for s, n in placed.items() if n > 0)
        run.topology.site(victim).force_used_slots(0)
        checker.on_step_end()
        assert checker.counts().get("slot-feasibility", 0) >= 1

    def test_full_deployment_catches_emptied_stage(self):
        run, checker, _ = make_run(seed=1, run_for=5.0)
        stage = next(iter(run.runtime.plan.stages.values()))
        stage.set_tasks([])
        checker.on_step_end()
        assert checker.counts().get("full-deployment", 0) >= 1

    def test_state_nonnegative_catches_negative_partition(self):
        run, checker, _ = make_run(seed=1, run_for=5.0)
        parts = [
            part
            for name in run.state_store.stage_names()
            for part in run.state_store.partitions(name)
        ]
        assert parts, "seed 1 should deploy stateful operators"
        parts[0].size_mb = -1.0
        checker.on_step_end()
        assert checker.counts().get("state-nonnegative", 0) >= 1


class TestRollbackDigest:
    def test_faithful_rollback_passes_and_mutation_fails(self):
        run, checker, _ = make_run(seed=1, run_for=5.0)
        now = run.runtime.now_s
        rollback = {
            "kind": "rollback",
            "t_s": now,
            "stage": "stage",
            "attempt": "primary",
        }
        checker.write({"kind": "snapshot"})
        checker.write(rollback)
        assert "rollback-digest" not in checker.counts()
        checker.write({"kind": "snapshot"})
        _table, _key, queue = next(iter(run.runtime.iter_queues()))
        queue.push(123.0, now)  # "rollback" that fails to restore a queue
        checker.write(rollback)
        assert checker.counts().get("rollback-digest", 0) == 1
        assert checker.checks.get("rollback-digest", 0) == 2


class TestMigrationDetection:
    @staticmethod
    def _feed(checker, transfers, *, stage, transition_s):
        checker.write({"kind": "attempt.start", "attempt": "primary"})
        checker.write({"kind": "migrate.start", "strategy": "wasp"})
        for rec in transfers:
            checker.write({"kind": "migrate.transfer", **rec})
        checker.write(
            {
                "kind": "migrate.end",
                "t_s": 5.0,
                "stage": stage,
                "transition_s": transition_s,
            }
        )

    def test_arithmetic_catches_bad_duration_and_transition(self):
        checker = InvariantChecker()  # arithmetic needs no bound run
        transfer = {
            "from_site": "a",
            "to_site": "b",
            "size_mb": 8.0,
            "bandwidth_mbps": 8.0,
            "duration_s": 999.0,  # truth: 8 MB * 8 / 8 Mbps = 8 s
        }
        self._feed(checker, [transfer], stage="s", transition_s=999.0)
        assert checker.counts().get("migration-arithmetic", 0) == 1
        checker = InvariantChecker()
        self._feed(
            checker,
            [dict(transfer, duration_s=8.0)],
            stage="s",
            transition_s=1.0,  # != max(durations)
        )
        assert checker.counts().get("migration-arithmetic", 0) == 1
        checker = InvariantChecker()
        self._feed(
            checker,
            [dict(transfer, duration_s=8.0)],
            stage="s",
            transition_s=8.0,
        )
        assert checker.counts() == {}

    def _find_swap_quad(self, bandwidth, names):
        """Sites A,B,C,D where mapping A->D, B->C beats A->C, B->D by 2x."""
        for quad in itertools.permutations(names, 4):
            a, b, c, d = quad
            bws = [bandwidth(x, y) for x, y in
                   ((a, c), (b, d), (a, d), (b, c))]
            if any(bw <= 0 for bw in bws):
                continue
            observed = max(80.0 / bws[0], 80.0 / bws[1])
            swapped = max(80.0 / bws[2], 80.0 / bws[3])
            if swapped < observed * 0.5:
                return quad
        return None

    def test_minmax_catches_suboptimal_mapping(self):
        run, checker, _ = make_run(seed=1, variant="WASP", run_for=5.0)
        bandwidth = run.manager.migration_bandwidth
        quad = self._find_swap_quad(
            bandwidth, [site.name for site in run.topology]
        )
        assert quad is not None, "mesh should contain an improvable mapping"
        a, b, c, d = quad
        stage = next(iter(run.runtime.plan.stages))

        def transfer(src, dst):
            bw = bandwidth(src, dst)
            return {
                "from_site": src,
                "to_site": dst,
                "size_mb": 10.0,
                "bandwidth_mbps": bw,
                "duration_s": 80.0 / bw,
            }

        commit = {
            "kind": "commit",
            "t_s": 5.0,
            "stage": stage,
            "attempt": "primary",
            "action": "re-assign",
            "reason": "degraded placement",
        }
        # Suboptimal mapping: permuting the destinations halves the makespan.
        bad = [transfer(a, c), transfer(b, d)]
        self._feed(
            checker, bad, stage=stage,
            transition_s=max(r["duration_s"] for r in bad),
        )
        checker.write(commit)
        counts = checker.counts()
        assert counts.get("migration-minmax", 0) == 1
        assert "migration-arithmetic" not in counts
        # The permuted mapping is minmax-optimal: no violation.
        checker = InvariantChecker()
        checker.bind(run)
        good = [transfer(a, d), transfer(b, c)]
        self._feed(
            checker, good, stage=stage,
            transition_s=max(r["duration_s"] for r in good),
        )
        checker.write(commit)
        assert "migration-minmax" not in checker.counts()
        assert checker.checks.get("migration-minmax", 0) == 1


class TestCommitDetection:
    def test_scale_law_catches_noop_scale_up(self):
        run, checker, _ = make_run(seed=1, variant="WASP", run_for=5.0)
        name = next(iter(run.runtime.plan.stages))
        run.manager.last_diagnoses = {
            name: StageDiagnosis(
                stage=name,
                health=Health.COMPUTE_BOUND,
                expected_input_eps=100.0,
                processing_capacity_eps=1000.0,
                utilization=0.1,
                input_backlog=0.0,
                input_backlog_growth=0.0,
            )
        }
        checker.write({"kind": "round.start"})
        # A committed "scale up" that leaves parallelism unchanged violates
        # the strict-growth side of the Section-4.2 law.
        checker.write(
            {
                "kind": "commit",
                "t_s": 5.0,
                "stage": name,
                "attempt": "primary",
                "action": "scale up",
                "reason": "compute bottleneck",
            }
        )
        assert checker.counts().get("scale-law", 0) == 1
        assert checker.checks.get("scale-law", 0) == 1

    def test_alpha_cap_catches_overloaded_links(self):
        run, checker, _ = make_run(seed=1, variant="WASP", run_for=5.0)
        plan = run.runtime.plan
        # A window claiming 1e9 eps makes every WAN flow exceed alpha * B,
        # so the first network-bottleneck commit on a stage with a remote
        # upstream must fire.
        run.manager.last_window = MetricsWindow(
            t_start_s=0.0,
            t_end_s=5.0,
            offered_eps=1e9,
            source_generation_eps={name: 1e9 for name in plan.stages},
            stages={},
            mean_delay_s=0.0,
        )
        for name in plan.stages:
            checker.write({"kind": "round.start"})
            checker.write(
                {
                    "kind": "commit",
                    "t_s": 5.0,
                    "stage": name,
                    "attempt": "primary",
                    "action": "re-assign",
                    "reason": "network bottleneck: fuzzed",
                }
            )
            if checker.counts().get("alpha-cap"):
                break
        assert checker.counts().get("alpha-cap", 0) >= 1
        assert checker.checks.get("alpha-cap", 0) >= 1


def _pressure(count):
    """``count`` inbound links with no capacity: the scale-out bound of a
    network-bound stage is ``p + count`` (count <= 4)."""
    return tuple(
        LinkPressure(f"src-{i}", "dst", 100.0, 0.0)
        for i in range(count)
    )


class TestDiagnosisPicksTheLaw:
    """The round's diagnosis, not the action's label or reason, picks the
    Section 4.1/4.2 checks of a commit.

    Each case diagnoses one stage with 100 eps expected on 1000 eps per
    task, so the DS2 bound is ``p + 1``, and with four saturated inbound
    links, so the scale-out bound is ``p + 4``; the commit lands at
    ``p + 2``, inside the second and outside the first.
    """

    def _round(self, health, *, grow_by=2):
        run, checker, _ = make_run(seed=1, variant="WASP", run_for=5.0)
        stage = next(
            s for s in run.runtime.plan.topological_stages()
            if not s.is_source
        )
        p = stage.parallelism
        # A quiet window: the alpha check evaluates, and every flow fits.
        run.manager.last_window = MetricsWindow(
            t_start_s=0.0,
            t_end_s=5.0,
            offered_eps=0.0,
            source_generation_eps={},
            stages={},
            mean_delay_s=0.0,
        )
        run.manager.last_diagnoses = {
            stage.name: StageDiagnosis(
                stage=stage.name,
                health=health,
                expected_input_eps=100.0,
                processing_capacity_eps=1000.0 * p,
                utilization=0.5,
                input_backlog=0.0,
                input_backlog_growth=0.0,
                constrained_links=_pressure(4),
            )
        }
        checker.write({"kind": "round.start"})
        site = next(iter(stage.placement()))
        for _ in range(grow_by):
            stage.add_task(site)
        # The checker holds its run weakly: the caller keeps it alive.
        return run, checker, stage.name

    @staticmethod
    def _commit(checker, stage, action, reason):
        checker.write(
            {
                "kind": "commit",
                "t_s": 40.0,
                "stage": stage,
                "attempt": "primary",
                "action": action,
                "reason": reason,
            }
        )

    def test_network_bound_scale_up_gets_alpha_and_scale_out_bound(self):
        """A network-bound scale-out whose tasks all land on one site is
        labelled ``scale up``; the alpha-capped solver still placed it."""
        _run, checker, stage = self._round(Health.NETWORK_BOUND)
        self._commit(checker, stage, "scale up", "network bottleneck")
        assert checker.violations == []
        assert checker.checks.get("scale-law", 0) == 1
        assert checker.checks.get("alpha-cap", 0) == 1

    def test_compute_bound_scale_out_gets_ds2_bound_and_no_alpha(self):
        """A compute-bound scale-up that ran out of local slots is
        labelled ``scale out``; DS2 bounds it and no alpha cap applies."""
        _run, checker, stage = self._round(Health.COMPUTE_BOUND)
        self._commit(checker, stage, "scale out", "compute bottleneck")
        assert checker.counts() == {"scale-law": 1}
        assert checker.checks.get("alpha-cap", 0) == 0

    @pytest.mark.parametrize(
        "health,alpha_checks",
        [(Health.COMPUTE_BOUND, 0), (Health.NETWORK_BOUND, 1)],
    )
    def test_reason_text_does_not_gate(self, health, alpha_checks):
        """The same "network bottleneck" reason, two diagnoses: only the
        network-bound one is alpha-checked."""
        _run, checker, stage = self._round(health, grow_by=1)
        self._commit(
            checker, stage, "scale out", "network bottleneck: fuzzed"
        )
        assert checker.violations == []
        assert checker.checks.get("alpha-cap", 0) == alpha_checks
        assert checker.checks.get("scale-law", 0) == 1

    def test_commit_outside_a_round_gets_no_law_check(self):
        """A controlled action or a long-term re-plan commits between
        rounds: no diagnosis picked it, so neither law applies."""
        _run, checker, stage = self._round(Health.COMPUTE_BOUND, grow_by=0)
        checker.write({"kind": "round.end"})
        # Checked, this no-op scale up would violate strict growth.
        self._commit(checker, stage, "scale up", "controlled adaptation")
        self._commit(checker, stage, "re-assign", "controlled adaptation")
        assert checker.violations == []
        assert "scale-law" not in checker.checks
        assert "alpha-cap" not in checker.checks
