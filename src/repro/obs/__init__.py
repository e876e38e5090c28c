"""Structured observability for the adaptation control loop.

``repro.obs`` is the runtime telemetry layer: typed, sim-clock-stamped
events for the full adaptation lifecycle (:mod:`.events`), span-structured
trace reconstruction (:mod:`.trace`) and pluggable sinks - in-memory ring
buffer, JSONL trace files, Prometheus textfile metrics (:mod:`.sinks`).

Wiring: :class:`~repro.experiments.harness.ExperimentRun` owns one
:class:`EventBus` and hands it to the controller, checkpoint coordinator
and chaos injector.  Attach a sink before (or during) a run::

    run = launch("topk-topics", wasp(), seed=7)
    run.obs.attach(JsonlSink("trace.jsonl"))
    run.run(900.0, dynamics)
    run.obs.close()

then inspect it with ``python -m repro trace trace.jsonl``.  Components
emit unconditionally; with no sink attached ``emit`` returns before
building a record, and emitting never touches simulation state, so an
unobserved run's recorder output is bit-identical to a traced one's.
"""

from .events import (
    ENVELOPE_FIELDS,
    EVENT_TYPES,
    SCHEMA,
    Abandoned,
    Apply,
    AttemptStart,
    ChaosFault,
    Checkpoint,
    Commit,
    Decide,
    Diagnose,
    EventBus,
    FallbackHop,
    MigrateEnd,
    MigrateStart,
    MigrateTransfer,
    ObsEvent,
    Restore,
    Rollback,
    RoundEnd,
    RoundStart,
    Snapshot,
    SpanEnd,
    SpanStart,
    Validate,
    Verify,
    WindowSnapshot,
    require_valid,
    validate_record,
)
from .sinks import (
    JsonlSink,
    PrometheusTextfileSink,
    RingBufferSink,
    read_jsonl,
)
from .trace import (
    ActionTrace,
    AttemptTrace,
    RoundTrace,
    Span,
    TraceSummary,
    TransferTrace,
    build_spans,
    reconstruct,
    render_timeline,
)

__all__ = [
    "ENVELOPE_FIELDS",
    "EVENT_TYPES",
    "SCHEMA",
    "Abandoned",
    "ActionTrace",
    "Apply",
    "AttemptStart",
    "AttemptTrace",
    "ChaosFault",
    "Checkpoint",
    "Commit",
    "Decide",
    "Diagnose",
    "EventBus",
    "FallbackHop",
    "JsonlSink",
    "MigrateEnd",
    "MigrateStart",
    "MigrateTransfer",
    "ObsEvent",
    "PrometheusTextfileSink",
    "Restore",
    "RingBufferSink",
    "Rollback",
    "RoundEnd",
    "RoundStart",
    "RoundTrace",
    "Snapshot",
    "Span",
    "SpanEnd",
    "SpanStart",
    "TraceSummary",
    "TransferTrace",
    "Validate",
    "Verify",
    "WindowSnapshot",
    "build_spans",
    "read_jsonl",
    "reconstruct",
    "render_timeline",
    "require_valid",
    "validate_record",
]
