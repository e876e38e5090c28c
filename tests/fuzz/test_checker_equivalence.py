"""The one-pass InvariantChecker against the checker it replaced.

:class:`~tests.fuzz.reference_checker.ReferenceInvariantChecker` is the
previous checker, kept verbatim.  Two kinds of comparison:

* whole scenarios, each checker on its own run of the same spec: the
  exercise counts, ticks checked, violation lists (invariant, time,
  detail, order) and recorder digests must be identical.  The seeds cover
  a block of reference-backend scenarios, the four seeds whose scale
  commits cross the placement label's law, and three dense-backend
  scenarios;
* one run observed by both checkers at once (:class:`_Both`), steered
  into the cases the rewrite's shortcuts have to get right: a periodic
  callback that moves queued events between stages mid-step (the
  conservation baseline must be rescanned), negative parcels behind
  positive ones, and chaos faults striking on the same steps.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

import repro.engine.dense as dense_module
from repro.fuzz.campaign import recorder_digest
from repro.fuzz.generate import FaultSpec, build_run, generate_scenario
from repro.fuzz.invariants import InvariantChecker

from tests.engine import column_routing
from tests.engine.column_routing import ColumnRoutingRuntime, transfer_into
from tests.engine.parcels import drop_oldest
from tests.fuzz.reference_checker import ReferenceInvariantChecker

#: Seeds whose scale commits fall under the other scaling law than
#: their placement label suggests (compute-bound tasks landing on another
#: site, network-bound ones on one site): both checkers must key the law
#: on the round's diagnosis, run clean, and still evaluate ``scale-law``.
SCALE_LAW_SEEDS = (819, 997, 1541, 1971)

#: A fault-free scenario whose queues hold a backlog across ~90 of its
#: 240 step ends.
BACKLOG_SEED = 38

#: A scenario whose site crash ends in a checkpoint restore.
RESTORE_SEED = 2


def _spec(seed: int, backend: str | None = None):
    spec = generate_scenario(seed)
    if backend is not None:
        spec = dataclasses.replace(
            spec,
            config_overrides={
                **spec.config_overrides,
                "engine_backend": backend,
            },
        )
    return spec


def _checked(spec, checker):
    run, dynamics = build_run(spec)
    run.attach_checker(checker)
    run.run(spec.duration_s, dynamics)
    return recorder_digest(run.recorder)


def _assert_same(new, ref) -> None:
    assert new.checks == ref.checks
    assert new.ticks_checked == ref.ticks_checked
    assert new.violations == ref.violations


@pytest.mark.parametrize(
    "seed,backend",
    [(seed, None) for seed in range(24)]
    + [(seed, None) for seed in SCALE_LAW_SEEDS]
    + [(seed, "dense") for seed in (1, 4, 11)],
)
def test_scenario_matches_reference(seed, backend):
    spec = _spec(seed, backend)
    new, ref = InvariantChecker(), ReferenceInvariantChecker()
    assert _checked(spec, new) == _checked(spec, ref)
    _assert_same(new, ref)
    if seed in SCALE_LAW_SEEDS:
        assert new.violations == []
        assert new.checks.get("scale-law", 0) > 0


class _Both:
    """Hook both checkers into one run; each sees the same states.

    Also logs the record kinds and, per step, the simulated time and how
    many periodic callbacks that step's clock advance fired."""

    def __init__(self) -> None:
        self.new = InvariantChecker()
        self.ref = ReferenceInvariantChecker()
        self.kinds: list[str] = []
        self.steps: list[tuple[float, int]] = []
        self._run = None

    def bind(self, run) -> None:
        self._run = run
        self.new.bind(run)
        self.ref.bind(run)

    def write(self, record: dict) -> None:
        self.kinds.append(record["kind"])
        self.new.write(record)
        self.ref.write(record)

    def close(self) -> None:
        pass

    def on_report(self, report) -> None:
        self.new.on_report(report)
        self.ref.on_report(report)

    def on_step_end(self) -> None:
        clock = self._run.clock
        self.steps.append((clock.now_s, clock.callbacks_fired))
        self.new.on_step_end()
        self.ref.on_step_end()


def _both_run(spec):
    run, dynamics = build_run(spec)
    both = _Both()
    run.attach_checker(both)
    return run, dynamics, both


class TestShortcuts:
    def test_callback_moving_events_between_stages_forces_rescan(self):
        """A periodic callback shifts half of one stage's backlog into
        another stage's queue between on_report and on_step_end.  Reusing
        on_report's tally as the next baseline would book that shift as
        a conservation violation on both stages next tick."""
        spec = generate_scenario(BACKLOG_SEED)
        run, dynamics, both = _both_run(spec)
        shifts = []

        def shift(now_s: float) -> None:
            queues = [
                (key[0], queue)
                for table, key, queue in run.runtime.iter_queues()
                if table != "net"
            ]
            for stage, src in queues:
                if src.count > 1.0:
                    dst = next(q for s, q in queues if s != stage)
                    transfer_into(src, dst, src.count / 2, 0.0)
                    shifts.append(now_s)
                    return

        run.clock.every(3.0, shift, name="shift")
        run.run(spec.duration_s, dynamics)
        assert len(shifts) >= 10
        _assert_same(both.new, both.ref)
        assert both.new.violations == []
        assert both.new.checks["conservation"] == both.new.ticks_checked - 1

    @staticmethod
    def _backlogged_queue():
        """A run stepped until some queue holds > 1 event, and that queue."""
        spec = generate_scenario(BACKLOG_SEED)
        run, dynamics, both = _both_run(spec)
        for _ in range(int(spec.duration_s)):
            run.run(1.0, dynamics)
            backlog = [
                (table, key, queue)
                for table, key, queue in run.runtime.iter_queues()
                if queue.count > 1.0
            ]
            if backlog:
                return run, both, backlog[0]
        raise AssertionError("no backlog")

    @pytest.mark.parametrize(
        "head", [1.0, math.nan], ids=["positive-head", "nan-head"]
    )
    def test_negative_parcel_behind_positive_ones(self, head):
        run, both, (table, key, queue) = self._backlogged_queue()
        now = run.runtime.now_s
        queue._counts.appendleft(head)
        queue._gens.appendleft(queue._gens[0] - 1.0)
        for count in (3.0, -5.0):
            queue._counts.append(count)
            queue._gens.append(now)
        assert queue.count > 0
        both.new._check_nonnegative(now)
        both.ref._check_nonnegative(now)
        _assert_same(both.new, both.ref)
        assert [v.detail for v in both.new.violations] == [
            f"{table} queue {key} holds negative parcel -5.0"
        ]

    def test_negative_total_over_nonnegative_parcels(self):
        run, both, (table, key, queue) = self._backlogged_queue()
        queue._count = -5.0
        now = run.runtime.now_s
        both.new._check_nonnegative(now)
        both.ref._check_nonnegative(now)
        _assert_same(both.new, both.ref)
        assert [v.detail for v in both.new.violations] == [
            f"{table} queue {key} has count -5.0"
        ]

    def test_chaos_faults_on_callback_and_quiet_steps(self):
        """Faults strike both on steps whose clock advance fires periodic
        callbacks and on quiet steps; a crash recovery replays
        checkpointed events (``restore`` records)."""
        base = generate_scenario(RESTORE_SEED)
        link = base.links[0]
        extra = (
            FaultSpec(
                at_s=40.0, kind="bandwidth-collapse",
                params={
                    "src": link.src, "dst": link.dst, "factor": 0.05,
                    "duration_s": 20.0,
                },
            ),
            FaultSpec(
                at_s=41.0, kind="straggler",
                params={
                    "site": link.dst, "slowdown": 4.0, "duration_s": 20.0,
                },
            ),
        )
        spec = dataclasses.replace(base, faults=base.faults + extra)
        run, dynamics, both = _both_run(spec)
        run.run(spec.duration_s, dynamics)
        fired = dict(both.steps)
        fault_steps = {fault.t_s for fault in run.recorder.faults}
        assert {fired[t] > 0 for t in fault_steps} == {True, False}
        assert "restore" in both.kinds
        _assert_same(both.new, both.ref)
        assert both.new.checks["conservation"] < both.new.ticks_checked

    def test_small_leak_inside_the_tick(self, monkeypatch):
        """0.005 events vanish from each WAN arrival: a gap just above the
        tolerance, which the screen must pass on to the full ledger."""
        # The runs tick the previous engine, whose WAN transfer goes
        # through a function the leak can wrap.
        monkeypatch.setattr(
            dense_module, "EngineRuntime", ColumnRoutingRuntime
        )
        original = column_routing.transfer_into

        def leaky(src, dst, max_events, extra_age_s):
            moved = original(src, dst, max_events, extra_age_s)
            drop_oldest(dst, min(moved, 0.005))
            return moved

        monkeypatch.setattr(column_routing, "transfer_into", leaky)
        spec = dataclasses.replace(generate_scenario(0), duration_s=60.0)
        run, dynamics, both = _both_run(spec)
        run.run(spec.duration_s, dynamics)
        _assert_same(both.new, both.ref)
        assert {v.invariant for v in both.new.violations} == {
            "conservation"
        }

    def test_undeployed_downstream_stage(self):
        """A downstream stage with no tasks receives nothing: its
        upstream stage is held back and its input waits at the sender."""
        spec = generate_scenario(BACKLOG_SEED)
        run, dynamics, both = _both_run(spec)
        run.run(20.0, dynamics)
        plan = run.runtime.plan
        stage = next(
            s for s in plan.topological_stages()
            if plan.upstream_stages(s.name)
        )
        # Undeploy it as the scheduler does: its slots go with its tasks
        # (slot-feasibility flags a slot held without a task).
        for task in stage.tasks:
            run.topology.site(task.site).release()
        stage.clear_tasks()
        run.run(5.0, dynamics)
        _assert_same(both.new, both.ref)
        assert {v.invariant for v in both.new.violations} == {
            "full-deployment"
        }

    def test_baseline_reuse_needs_a_clock_advance(self):
        """on_step_end without a clock advance since on_report (a harness
        driving the hooks by hand) rescans instead of reusing."""
        spec = generate_scenario(BACKLOG_SEED)
        run, dynamics, both = _both_run(spec)
        run.run(20.0, dynamics)
        report = run.runtime.tick()
        both.on_report(report)
        sources = {stage.name for stage in run.runtime.plan.source_stages()}
        queues = [
            q for table, key, q in run.runtime.iter_queues()
            if table == "input" and key[0] in sources
        ]
        queues[0].push(50.0, run.runtime.now_s)
        both.on_step_end()
        run.run(3.0, dynamics)
        _assert_same(both.new, both.ref)
        assert both.new.violations == []
