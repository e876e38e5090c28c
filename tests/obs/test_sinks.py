"""Tests for repro.obs.sinks - ring buffer, JSONL, Prometheus textfile."""

import io
import json

import pytest

from repro.errors import ObsError
from repro.obs.events import (
    ChaosFault,
    Checkpoint,
    Commit,
    EventBus,
    MigrateEnd,
    MigrateTransfer,
    Rollback,
    RoundStart,
    WindowSnapshot,
)
from repro.obs.sinks import (
    JsonlSink,
    PrometheusTextfileSink,
    RingBufferSink,
    read_jsonl,
)


def emit_n(bus, n):
    for i in range(n):
        bus.emit(RoundStart(float(i), round=i, stages=1))


class TestRingBufferSink:
    def test_unbounded_by_default(self):
        bus = EventBus()
        sink = bus.attach(RingBufferSink())
        emit_n(bus, 100)
        assert len(sink) == 100

    def test_capacity_keeps_most_recent(self):
        bus = EventBus()
        sink = bus.attach(RingBufferSink(capacity=3))
        emit_n(bus, 10)
        assert len(sink) == 3
        assert [r["round"] for r in sink.records] == [7, 8, 9]

    def test_invalid_capacity_raises(self):
        with pytest.raises(ObsError):
            RingBufferSink(capacity=0)


class TestJsonlSink:
    def test_round_trips_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        bus = EventBus()
        ring = bus.attach(RingBufferSink())
        sink = bus.attach(JsonlSink(path))
        emit_n(bus, 3)
        sink.close()
        assert len(read_jsonl(path)) == 3
        assert read_jsonl(path) == ring.records

    def test_preserves_field_order_on_disk(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        bus = EventBus()
        sink = bus.attach(JsonlSink(path))
        emit_n(bus, 1)
        sink.close()
        line = path.read_text().splitlines()[0]
        keys = list(json.loads(line))
        assert keys[:6] == ["schema", "seq", "t_s", "kind", "span", "parent"]
        # Compact separators: no spaces after ':' or ','.
        assert ": " not in line and ", " not in line

    def test_same_emissions_are_byte_identical(self, tmp_path):
        def one(path):
            bus = EventBus()
            sink = bus.attach(JsonlSink(path))
            emit_n(bus, 5)
            sink.close()
            return path.read_bytes()

        assert one(tmp_path / "a.jsonl") == one(tmp_path / "b.jsonl")

    def test_file_like_target_not_closed(self):
        buf = io.StringIO()
        with JsonlSink(buf) as sink:
            sink.write({"schema": "x", "kind": "y"})
        assert not buf.closed
        assert buf.getvalue().count("\n") == 1

    def test_context_manager_closes_owned_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.write({"k": 1})
        assert read_jsonl(path) == [{"k": 1}]

    def test_read_jsonl_reports_malformed_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok":1}\n{not json\n')
        with pytest.raises(ObsError, match=r"bad\.jsonl:2"):
            read_jsonl(path)

    def test_read_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"a":1}\n\n{"b":2}\n')
        assert read_jsonl(path) == [{"a": 1}, {"b": 2}]


class TestPrometheusTextfileSink:
    def _bus(self, tmp_path):
        bus = EventBus()
        sink = bus.attach(PrometheusTextfileSink(tmp_path / "wasp.prom"))
        return bus, sink

    def test_window_gauges(self, tmp_path):
        bus, sink = self._bus(tmp_path)
        bus.emit(
            WindowSnapshot(
                40.0,
                t_start_s=0.0,
                t_end_s=40.0,
                offered_eps=120.0,
                mean_delay_s=0.5,
                stages={
                    "agg": {
                        "lambda_p": 100.0,
                        "lambda_hat": 110.0,
                        "utilization": 0.8,
                        "backlog": 12.0,
                        "backlog_growth": 1.0,
                    }
                },
                links={"edge-1->dc-oregon": {"inflow_eps": 50.0, "backlog": 3.0}},
            )
        )
        text = sink.render()
        assert 'wasp_stage_lambda_p_eps{stage="agg"} 100.0' in text
        assert 'wasp_stage_lambda_hat_eps{stage="agg"} 110.0' in text
        assert 'wasp_stage_utilization{stage="agg"} 0.8' in text
        assert 'wasp_stage_backlog_events{stage="agg"} 12.0' in text
        assert 'wasp_link_inflow_eps{link="edge-1->dc-oregon"} 50.0' in text
        assert "wasp_window_end_seconds 40.0" in text
        # Window events flush the textfile immediately.
        assert sink.path.read_text() == text

    def test_lifecycle_counters(self, tmp_path):
        bus, sink = self._bus(tmp_path)
        bus.emit(
            Commit(1.0, stage="agg", attempt="retry-1", action="re-assign",
                   reason="r", transition_s=2.0)
        )
        bus.emit(Rollback(1.0, stage="agg", attempt="primary", error="e"))
        bus.emit(ChaosFault(1.0, fault="site-crash", detail="d", phase="apply"))
        bus.emit(ChaosFault(2.0, fault="site-crash", detail="d", phase="revert"))
        bus.emit(
            MigrateTransfer(1.0, stage="agg", from_site="a", to_site="b",
                            size_mb=30.0, bytes=3e7, bandwidth_mbps=100.0,
                            duration_s=2.4)
        )
        bus.emit(MigrateEnd(1.0, stage="agg", transition_s=2.4, abandoned_mb=5.0))
        bus.emit(Checkpoint(1.0, records=3, total_mb=10.0, skipped_sites=[]))
        text = sink.render()
        assert 'wasp_adaptations_total{outcome="committed"} 1.0' in text
        assert 'wasp_adaptations_total{outcome="rolled-back"} 1.0' in text
        assert "wasp_migration_state_mb_total 30.0" in text
        assert "wasp_migration_transfers_total 1.0" in text
        assert "wasp_state_abandoned_mb_total 5.0" in text
        assert "wasp_checkpoint_rounds_total 1.0" in text
        assert 'wasp_chaos_faults_total{fault="site-crash"} 2.0' in text

    def test_help_and_type_lines(self, tmp_path):
        bus, sink = self._bus(tmp_path)
        bus.emit(
            Commit(1.0, stage="agg", attempt="primary", action="scale-up",
                   reason="r", transition_s=0.0)
        )
        text = sink.render()
        assert "# HELP wasp_adaptations_total" in text
        assert "# TYPE wasp_adaptations_total counter" in text

    def test_label_escaping(self, tmp_path):
        bus, sink = self._bus(tmp_path)
        bus.emit(ChaosFault(1.0, fault='we"ird\\fault', detail="", phase="apply"))
        text = sink.render()
        assert 'fault="we\\"ird\\\\fault"' in text

    def test_close_writes_file(self, tmp_path):
        bus, sink = self._bus(tmp_path)
        bus.emit(
            Commit(1.0, stage="agg", attempt="primary", action="scale-up",
                   reason="r", transition_s=0.0)
        )
        bus.close()
        assert "wasp_adaptations_total" in sink.path.read_text()
