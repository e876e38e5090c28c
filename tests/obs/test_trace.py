"""Tests for repro.obs.trace - span and round reconstruction."""

import pytest

from repro.errors import ObsError
from repro.obs.events import (
    Abandoned,
    Apply,
    AttemptStart,
    ChaosFault,
    Commit,
    Decide,
    Diagnose,
    EventBus,
    FallbackHop,
    MigrateEnd,
    MigrateStart,
    MigrateTransfer,
    Restore,
    Rollback,
    RoundEnd,
    RoundStart,
    Snapshot,
    Validate,
    Verify,
)
from repro.obs.sinks import RingBufferSink
from repro.obs.trace import build_spans, reconstruct, render_timeline


def diagnose(t, stage, health="healthy"):
    return Diagnose(
        t,
        stage=stage,
        health=health,
        utilization=0.9,
        expected_input_eps=100.0,
        capacity_eps=80.0,
        backlog=10.0,
        backlog_growth=2.0,
        slow_sites=[],
    )


def emit_attempt(bus, t, stage, label, action="re-assign", reason="backlog"):
    bus.emit(AttemptStart(t, stage=stage, attempt=label, action=action, reason=reason))
    bus.emit(Snapshot(t, stage=stage))
    bus.emit(Validate(t, stage=stage, action=action))
    bus.emit(Apply(t, stage=stage, action=action, transition_s=2.0))


def fallback_round(bus, t=40.0, stage="agg"):
    """Emit a realistic round: primary rolls back, retry-1 migrates + commits."""
    with bus.span("adaptation-round", t):
        bus.emit(RoundStart(t, round=1, stages=2))
        bus.emit(diagnose(t, stage, health="compute_bound"))
        bus.emit(Decide(t, stage=stage, action="re-assign", reason="backlog"))
        emit_attempt(bus, t, stage, "primary")
        bus.emit(Rollback(t, stage=stage, attempt="primary", error="site lost"))
        bus.emit(FallbackHop(t, stage=stage, from_attempt="primary", to_attempt="retry-1"))
        emit_attempt(bus, t, stage, "retry-1")
        bus.emit(Verify(t, stage=stage))
        with bus.span("migration", t):
            bus.emit(MigrateStart(t, stage=stage, strategy="direct", transfers=2, total_mb=60.0))
            bus.emit(
                MigrateTransfer(t, stage=stage, from_site="dc-a", to_site="dc-b",
                                size_mb=40.0, bytes=4e7, bandwidth_mbps=100.0,
                                duration_s=3.2)
            )
            bus.emit(
                MigrateTransfer(t, stage=stage, from_site="edge-1", to_site="dc-b",
                                size_mb=20.0, bytes=2e7, bandwidth_mbps=50.0,
                                duration_s=3.4)
            )
            bus.emit(MigrateEnd(t, stage=stage, transition_s=3.4, abandoned_mb=0.0))
        bus.emit(
            Commit(t, stage=stage, attempt="retry-1", action="re-assign",
                   reason="backlog", transition_s=3.4)
        )
        bus.emit(RoundEnd(t, round=1, decided=1, executed=1))


def capture(emitter, *args, **kwargs):
    bus = EventBus()
    sink = bus.attach(RingBufferSink())
    emitter(bus, *args, **kwargs)
    return sink.records


class TestBuildSpans:
    def test_nesting_and_durations(self):
        records = capture(fallback_round)
        roots = build_spans(records)
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "adaptation-round"
        assert [c.name for c in root.children] == ["migration"]
        assert root.duration_s == 0.0

    def test_unclosed_span_has_no_end(self):
        bus = EventBus()
        sink = bus.attach(RingBufferSink())
        handle = bus.span("dangling", 5.0)
        handle.__enter__()
        roots = build_spans(sink.records)
        assert roots[0].t_end_s is None
        assert roots[0].duration_s is None


class TestReconstruct:
    def test_round_with_fallback_chain(self):
        records = capture(fallback_round)
        summary = reconstruct(records)
        assert summary.records == len(records)
        assert len(summary.rounds) == 1
        rnd = summary.rounds[0]
        assert rnd.round == 1
        assert len(rnd.diagnoses) == 1
        assert len(rnd.decisions) == 1
        assert len(rnd.actions) == 1

        action = rnd.actions[0]
        assert action.stage == "agg"
        assert action.hops == [("primary", "retry-1")]
        assert [a.label for a in action.attempts] == ["primary", "retry-1"]
        assert [a.outcome for a in action.attempts] == ["rolled-back", "committed"]
        assert action.rolled_back[0].error == "site lost"

        committed = action.committed
        assert committed is not None
        assert committed.label == "retry-1"
        assert committed.strategy == "direct"
        assert committed.transition_s == pytest.approx(3.4)
        assert len(committed.transfers) == 2
        assert committed.migration_mb == pytest.approx(60.0)
        assert committed.migration_s == pytest.approx(3.4)

    def test_orphan_action_outside_round(self):
        def emitter(bus):
            emit_attempt(bus, 10.0, "agg", "primary")
            bus.emit(Verify(10.0, stage="agg"))
            bus.emit(
                Commit(10.0, stage="agg", attempt="primary", action="re-assign",
                       reason="operator move", transition_s=2.0)
            )

        summary = reconstruct(capture(emitter))
        assert summary.rounds == []
        assert len(summary.orphan_actions) == 1
        assert summary.orphan_actions[0].committed.label == "primary"

    def test_abandoned_action(self):
        def emitter(bus):
            emit_attempt(bus, 10.0, "agg", "primary")
            bus.emit(Rollback(10.0, stage="agg", attempt="primary", error="x"))
            bus.emit(FallbackHop(10.0, stage="agg", from_attempt="primary",
                                 to_attempt="abandon-state"))
            emit_attempt(bus, 10.0, "agg", "abandon-state")
            bus.emit(Rollback(10.0, stage="agg", attempt="abandon-state", error="y"))
            bus.emit(Abandoned(10.0, stage="agg", action="re-assign"))

        summary = reconstruct(capture(emitter))
        action = summary.orphan_actions[0]
        assert action.abandoned
        assert action.committed is None
        assert len(action.rolled_back) == 2

    def test_faults_and_restores_collected(self):
        def emitter(bus):
            bus.emit(ChaosFault(120.0, fault="site-crash", detail="edge-1", phase="apply"))
            bus.emit(Restore(165.0, stage="agg", site="edge-1", events=500.0,
                             replay_window_s=45.0))
            bus.emit(ChaosFault(165.0, fault="site-crash", detail="edge-1", phase="revert"))

        summary = reconstruct(capture(emitter))
        assert len(summary.faults) == 2
        assert len(summary.restores) == 1
        assert summary.t_min_s == pytest.approx(120.0)
        assert summary.t_max_s == pytest.approx(165.0)

    def test_validate_rejects_corrupt_stream(self):
        records = capture(fallback_round)
        records[3] = dict(records[3], kind="not-a-kind")
        with pytest.raises(ObsError, match="record 4"):
            reconstruct(records)

    def test_consecutive_primaries_are_separate_actions(self):
        def emitter(bus):
            for t in (10.0, 20.0):
                emit_attempt(bus, t, "agg", "primary")
                bus.emit(Verify(t, stage="agg"))
                bus.emit(
                    Commit(t, stage="agg", attempt="primary", action="re-assign",
                           reason="r", transition_s=1.0)
                )

        summary = reconstruct(capture(emitter))
        assert len(summary.orphan_actions) == 2


class TestRenderTimeline:
    def test_header_counts(self):
        records = capture(fallback_round)
        text = render_timeline(records)
        assert f"trace: {len(records)} events" in text
        assert "rounds: 1" in text
        assert "1 committed" in text
        assert "1 rolled-back attempts" in text

    def test_fallback_and_migration_rendered(self):
        text = render_timeline(capture(fallback_round))
        assert "retry-1" in text
        assert "committed" in text
        assert "migrated 60.0 MB" in text
        assert "site lost" in text

    def test_faults_rendered_in_time_order(self):
        def emitter(bus):
            fallback_round(bus, t=40.0)
            bus.emit(ChaosFault(120.0, fault="site-crash", detail="edge-1", phase="apply"))
            bus.emit(ChaosFault(165.0, fault="site-crash", detail="edge-1", phase="revert"))

        text = render_timeline(capture(emitter))
        lines = text.splitlines()
        idx_round = next(i for i, l in enumerate(lines) if "round 1" in l)
        idx_fault = next(i for i, l in enumerate(lines) if "fault site-crash" in l)
        idx_revert = next(i for i, l in enumerate(lines) if "fault-revert" in l)
        assert idx_round < idx_fault < idx_revert
