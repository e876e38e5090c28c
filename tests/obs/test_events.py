"""Tests for repro.obs.events - the typed event bus."""

from dataclasses import dataclass

import pytest

from repro.errors import ObsError
from repro.obs.events import (
    ENVELOPE_FIELDS,
    EVENT_TYPES,
    SCHEMA,
    Commit,
    Diagnose,
    EventBus,
    MigrateTransfer,
    ObsEvent,
    RoundStart,
    require_valid,
    validate_record,
)
from repro.obs.sinks import RingBufferSink


class TestZeroOverhead:
    def test_bus_is_falsy_without_sinks(self):
        bus = EventBus()
        assert not bus
        assert bool(bus) is False

    def test_bus_is_truthy_with_sink(self):
        bus = EventBus()
        bus.attach(RingBufferSink())
        assert bus
        assert bool(bus) is True

    def test_emit_without_sink_is_a_no_op(self):
        bus = EventBus()
        bus.emit(RoundStart(1.0, round=1, stages=3))
        sink = bus.attach(RingBufferSink())
        bus.emit(RoundStart(2.0, round=2, stages=3))
        # The unobserved emit left no trace: sequencing starts at 1.
        assert [r["seq"] for r in sink.records] == [1]

    def test_composite_event_expands_only_when_a_sink_listens(self):
        expansions = []

        @dataclass(frozen=True)
        class Pair(ObsEvent):
            def expand(self):
                expansions.append(self.t_s)
                yield RoundStart(self.t_s, round=1, stages=2)
                yield RoundStart(self.t_s, round=2, stages=2)

        bus = EventBus()
        bus.emit(Pair(1.0))
        assert expansions == []
        sink = bus.attach(RingBufferSink())
        bus.emit(Pair(2.0))
        assert expansions == [2.0]
        assert [(r["seq"], r["kind"], r["round"]) for r in sink.records] == [
            (1, "round.start", 1),
            (2, "round.start", 2),
        ]

    def test_span_without_sink_yields_none(self):
        bus = EventBus()
        with bus.span("adaptation-round", 1.0) as span_id:
            assert span_id is None

    def test_detach_restores_falsiness(self):
        bus = EventBus()
        bus.attach(RingBufferSink())
        bus.close()
        assert not bus


class TestEnvelope:
    def test_record_field_order_is_envelope_then_payload(self):
        bus = EventBus()
        sink = bus.attach(RingBufferSink())
        bus.emit(
            Diagnose(
                40.0,
                stage="agg",
                health="network_bound",
                utilization=0.9,
                expected_input_eps=100.0,
                capacity_eps=80.0,
                backlog=5.0,
                backlog_growth=1.0,
                slow_sites=[],
            )
        )
        record = sink.records[0]
        _, payload_fields = EVENT_TYPES["diagnose"]
        assert tuple(record) == ENVELOPE_FIELDS + payload_fields

    def test_seq_is_monotonic(self):
        bus = EventBus()
        sink = bus.attach(RingBufferSink())
        for i in range(5):
            bus.emit(RoundStart(float(i), round=i, stages=1))
        assert [r["seq"] for r in sink.records] == [1, 2, 3, 4, 5]

    def test_schema_stamped(self):
        bus = EventBus()
        sink = bus.attach(RingBufferSink())
        bus.emit(RoundStart(0.0, round=1, stages=1))
        assert sink.records[0]["schema"] == SCHEMA

    def test_identical_emissions_produce_identical_records(self):
        def one_run():
            bus = EventBus()
            sink = bus.attach(RingBufferSink())
            with bus.span("adaptation-round", 40.0):
                bus.emit(RoundStart(40.0, round=1, stages=2))
                bus.emit(
                    Commit(
                        40.0,
                        stage="agg",
                        attempt="primary",
                        action="re-assign",
                        reason="r",
                        transition_s=2.0,
                    )
                )
            return sink.records

        assert one_run() == one_run()


class TestSpans:
    def test_span_ids_nest_via_parent(self):
        bus = EventBus()
        sink = bus.attach(RingBufferSink())
        with bus.span("adaptation-round", 40.0) as outer:
            bus.emit(RoundStart(40.0, round=1, stages=1))
            with bus.span("migration", 40.0) as inner:
                bus.emit(
                    MigrateTransfer(
                        40.0,
                        stage="agg",
                        from_site="a",
                        to_site="b",
                        size_mb=1.0,
                        bytes=1e6,
                        bandwidth_mbps=100.0,
                        duration_s=0.08,
                    )
                )
        records = {r["kind"]: r for r in sink.records}
        assert records["round.start"]["span"] == outer
        assert records["round.start"]["parent"] is None
        assert records["migrate.transfer"]["span"] == inner
        assert records["migrate.transfer"]["parent"] == outer
        starts = [r for r in sink.records if r["kind"] == "span.start"]
        assert [s["name"] for s in starts] == ["adaptation-round", "migration"]

    def test_span_ids_are_deterministic(self):
        bus = EventBus()
        bus.attach(RingBufferSink())
        with bus.span("a", 0.0) as first:
            pass
        with bus.span("b", 1.0) as second:
            pass
        assert (first, second) == ("s1", "s2")

    def test_close_detaches_all_sinks(self):
        bus = EventBus()
        bus.attach(RingBufferSink())
        bus.attach(RingBufferSink())
        bus.close()
        assert not bus


class TestValidation:
    def _valid_record(self):
        bus = EventBus()
        sink = bus.attach(RingBufferSink())
        bus.emit(RoundStart(1.0, round=1, stages=2))
        return sink.records[0]

    def test_emitted_record_is_valid(self):
        assert validate_record(self._valid_record()) == []

    def test_unknown_kind_rejected(self):
        record = dict(self._valid_record(), kind="nope")
        assert any("unknown event kind" in p for p in validate_record(record))

    def test_missing_payload_field_rejected(self):
        record = self._valid_record()
        del record["stages"]
        assert any("missing field" in p for p in validate_record(record))

    def test_extra_payload_field_rejected(self):
        record = dict(self._valid_record(), bogus=1)
        assert any("unexpected field" in p for p in validate_record(record))

    def test_wrong_schema_rejected(self):
        record = dict(self._valid_record(), schema="v0")
        assert any("schema" in p for p in validate_record(record))

    def test_non_dict_rejected(self):
        assert validate_record(["not", "a", "dict"])

    def test_require_valid_raises_obs_error(self):
        with pytest.raises(ObsError):
            require_valid({"schema": SCHEMA, "kind": "nope"})

    def test_require_valid_returns_record(self):
        record = self._valid_record()
        assert require_valid(record) is record

    def test_every_registered_kind_has_payload_fields(self):
        for kind, (cls, fields) in EVENT_TYPES.items():
            assert cls.kind == kind
            assert "t_s" not in fields
