"""Integration: a traced chaos run round-trips through JSONL exactly.

Two guarantees from the observability subsystem are checked end to end:

* **Fidelity** - with a JSONL sink attached, every committed and rolled-back
  adaptation the controller performed is reconstructible from the trace
  alone (action, attempt labels, fallback hops, migration megabytes/bytes
  and durations), matching ``manager.history`` / ``manager.attempt_log``.
* **Invisible** - with no sink (or a passive ring buffer) attached, a
  fixed-seed run records bit-identical output.
"""

import pytest

from benchmarks.perf.digest import DIGEST_SEED, _build_run, recorder_digest
from repro.baselines.variants import wasp
from repro.chaos import ChaosInjector, SiteCrash
from repro.chaos.faults import BandwidthCollapse
from repro.core.actions import ReassignAction
from repro.core.transaction import AdaptationPoint
from repro.experiments.harness import ExperimentRun
from repro.experiments.scenarios import bottleneck_dynamics
from repro.network.traces import paper_testbed
from repro.obs import JsonlSink, RingBufferSink, read_jsonl, reconstruct, require_valid
from repro.obs.trace import render_timeline
from repro.sim.rng import RngRegistry
from repro.workloads.queries import ysb_advertising

SEED = 11
DURATION_S = 220.0


def chaos_example_run(trace_path=None):
    """The examples/chaos_run.py scenario: crash the migration destination."""
    rngs = RngRegistry(SEED)
    topology = paper_testbed(rngs.stream("topology"))
    query = ysb_advertising(topology)
    run = ExperimentRun(topology, query, wasp(), rngs=rngs)
    if trace_path is not None:
        run.attach_trace(trace_path)

    stage = destination = None
    for candidate in run.runtime.plan.topological_stages():
        if candidate.stateful and candidate.parallelism > 0:
            placement = candidate.placement()
            for name, free in sorted(run.topology.available_slots().items()):
                if free > 0 and name not in placement:
                    stage, destination = candidate, name
                    break
        if stage is not None:
            break
    assert stage is not None, "query has no movable stateful stage"

    chaos = ChaosInjector(rngs.stream("chaos"))
    chaos.at_point(
        AdaptationPoint.MIGRATION_IN_FLIGHT,
        SiteCrash(destination, duration_s=60.0),
        stage=stage.name,
    )
    run.attach_chaos(chaos)

    run.run(10.0)
    record = run.manager.execute(
        ReassignAction(stage.name, "operator move", {destination: 1}),
        now_s=10.0,
    )
    run.run(110.0)
    run.obs.close()
    return run, record


def traced_chaos_controller_run(trace_path):
    """The digest chaos scenario with a JSONL trace attached: faults strike
    the running control loop, so adaptations happen inside rounds."""
    run = _build_run(DIGEST_SEED)
    run.attach_trace(trace_path)
    injector = (
        ChaosInjector(rng=RngRegistry(DIGEST_SEED).stream("chaos"))
        .at(120.0, SiteCrash(site="edge-1", duration_s=45.0))
        .at(
            200.0,
            BandwidthCollapse(
                src="dc-oregon", dst="dc-ohio", factor=0.3, duration_s=60.0
            ),
        )
    )
    run.attach_chaos(injector)
    run.run(DURATION_S, bottleneck_dynamics())
    run.obs.close()
    return run


class TestChaosTraceRoundTrip:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "chaos.jsonl"
        run, record = chaos_example_run(path)
        return run, record, read_jsonl(path)

    def test_every_record_is_schema_valid(self, traced):
        _, _, records = traced
        assert records, "trace is empty"
        for record in records:
            require_valid(record)

    def test_sequence_is_contiguous(self, traced):
        _, _, records = traced
        assert [r["seq"] for r in records] == list(range(1, len(records) + 1))

    def test_fallback_chain_reconstructed(self, traced):
        run, record, records = traced
        summary = reconstruct(records)
        # The direct manager.execute call is one orphan action whose attempt
        # chain mirrors the controller's attempt_log exactly.
        assert len(summary.orphan_actions) == 1
        action = summary.orphan_actions[0]
        # attempt_log spans the whole run (the control loop may adapt again
        # later, inside a round); the trace must mirror it attempt for
        # attempt across orphan and in-round actions alike.
        assert [
            (a.label, a.outcome)
            for act in summary.all_actions
            for a in act.attempts
        ] == [(a.attempt, a.outcome) for a in run.manager.attempt_log]
        # Chaos killed the migration destination: the primary rolled back
        # and a fallback hop led to the attempt that finally committed.
        assert action.rolled_back, "expected the primary attempt to roll back"
        assert action.hops, "expected at least one fallback hop"
        assert action.hops[0][0] == "primary"
        committed = action.committed
        assert committed is not None
        assert committed.label == record.attempt
        assert committed.transition_s == pytest.approx(record.transition_s)

    def test_committed_migration_bytes_and_duration(self, traced):
        run, record, records = traced
        committed = reconstruct(records).orphan_actions[0].committed
        assert record.migration is not None
        assert committed.migration_mb == pytest.approx(record.migration.total_mb)
        assert committed.migration_s == pytest.approx(
            record.migration.transition_s
        )
        for transfer in committed.transfers:
            assert transfer.bandwidth_mbps > 0
            assert transfer.duration_s >= 0

    def test_faults_match_recorder(self, traced):
        run, _, records = traced
        summary = reconstruct(records)
        assert len(summary.faults) == len(run.recorder.faults)
        applies = [f for f in summary.faults if f["phase"] == "apply"]
        reverts = [f for f in summary.faults if f["phase"] == "revert"]
        assert applies and reverts, "expected the crash and its revert"

    def test_timeline_renders(self, traced):
        _, _, records = traced
        text = render_timeline(records)
        assert "direct action" in text
        assert "rolled-back" in text
        assert "fault" in text

    def test_trace_is_deterministic(self, tmp_path, traced):
        path = tmp_path / "again.jsonl"
        chaos_example_run(path)
        _, _, records = traced
        assert read_jsonl(path) == records


class TestControllerRoundTrace:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "rounds.jsonl"
        run = traced_chaos_controller_run(path)
        return run, read_jsonl(path)

    def test_rounds_and_windows_present(self, traced):
        _, records = traced
        summary = reconstruct(records)
        assert summary.rounds, "control loop emitted no rounds"
        assert any(r.window is not None for r in summary.rounds)
        assert any(r.diagnoses for r in summary.rounds)

    def test_every_adaptation_reconstructible(self, traced):
        run, records = traced
        summary = reconstruct(records)
        committed = [a.committed for a in summary.all_actions if a.committed]
        history = run.manager.history
        assert [(c.stage, c.action) for c in committed] == [
            (r.stage, r.kind.value) for r in history
        ]
        for trace_attempt, record in zip(committed, history):
            assert trace_attempt.label == record.attempt
            assert trace_attempt.transition_s == pytest.approx(
                record.transition_s
            )
            if record.migration is not None and record.migration.transfers:
                assert trace_attempt.migration_mb == pytest.approx(
                    record.migration.total_mb
                )
                assert trace_attempt.migration_s == pytest.approx(
                    record.migration.transition_s
                )

    def test_rollbacks_match_attempt_log(self, traced):
        run, records = traced
        summary = reconstruct(records)
        trace_attempts = [
            (a.stage, a.label, a.outcome)
            for act in summary.all_actions
            for a in act.attempts
        ]
        log_attempts = [
            (a.stage, a.attempt, a.outcome) for a in run.manager.attempt_log
        ]
        assert trace_attempts == log_attempts


class TestZeroOverheadDigest:
    def test_attached_ring_buffer_does_not_change_recorder_output(self):
        def digest(attach_sink):
            run = _build_run(DIGEST_SEED)
            sink = run.obs.attach(RingBufferSink()) if attach_sink else None
            run.run(DURATION_S, bottleneck_dynamics())
            if sink is not None:
                assert len(sink) > 0
            run.obs.close()
            return recorder_digest(run.recorder)

        assert digest(False) == digest(True)
