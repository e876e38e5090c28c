"""Typed events and the event bus for the adaptation control loop.

WASP's contribution is a control loop - monitor, estimate, diagnose, decide,
migrate, verify - and this module gives that loop a structured, replayable
record.  Every lifecycle step is a frozen dataclass (:class:`RoundStart`,
:class:`Diagnose`, :class:`MigrateTransfer`, ...); instrumented components
emit them through an :class:`EventBus`, which stamps each one with a
monotonic sequence number and the enclosing trace span and fans it out to
the attached sinks (:mod:`repro.obs.sinks`).

Two properties the rest of the system depends on:

* **Cheap when nothing listens, invisible always.**  Every component holds
  a real bus and emits unconditionally: while no sink is attached ``emit``
  returns before stamping or building a record, so an event costs its
  dataclass construction and one call.  An event whose payload is costly
  to build (the round's window and per-stage diagnoses) is emitted as one
  composite event that builds its records in :meth:`ObsEvent.expand`,
  which only runs once a sink listens.  Emission never touches simulation
  state or RNG streams, so a traced and an untraced run of the same seed
  produce bit-identical recorder digests.
* **Stable field ordering.**  Emitted records are plain dicts built in a
  fixed order (envelope fields, then payload fields in dataclass
  declaration order), so a JSONL trace is byte-stable across runs of the
  same seed and diffs cleanly across commits.

Events carry *simulated* time (``t_s``), never wall-clock: a trace is a
deterministic function of the seed, like every other artifact of a run.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass
from typing import ClassVar, Iterator, Protocol

from ..errors import ObsError

#: Schema identifier stamped on every emitted record.
SCHEMA = "wasp-obs/v1"

#: Envelope fields, in emission order, preceding the payload fields.
ENVELOPE_FIELDS = ("schema", "seq", "t_s", "kind", "span", "parent")


class Sink(Protocol):
    """Anything that can receive emitted records (see :mod:`.sinks`)."""

    def write(self, record: dict) -> None: ...

    def close(self) -> None: ...


# --------------------------------------------------------------------------- #
# Event taxonomy
# --------------------------------------------------------------------------- #

#: kind -> (event class, payload field names); populated by ``_register``.
EVENT_TYPES: dict[str, tuple[type, tuple[str, ...]]] = {}


def _register(cls):
    """Class decorator: index an event type by its ``kind`` string."""
    fields = tuple(
        f.name for f in dataclasses.fields(cls) if f.name != "t_s"
    )
    if cls.kind in EVENT_TYPES:  # pragma: no cover - author error
        raise ObsError(f"duplicate event kind {cls.kind!r}")
    EVENT_TYPES[cls.kind] = (cls, fields)
    return cls


@dataclass(frozen=True)
class ObsEvent:
    """Base event: everything carries the simulated time it happened at."""

    t_s: float

    kind: ClassVar[str] = ""

    def payload(self) -> dict:
        """Payload fields in declaration order (stable JSONL ordering)."""
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name != "t_s"
        }

    def expand(self) -> Iterator["ObsEvent"]:
        """The events this one delivers: itself.  An event that stands for
        several records (and is costly to build) overrides this, so the
        bus builds them only once a sink listens."""
        yield self


# -- adaptation round ------------------------------------------------------- #


@_register
@dataclass(frozen=True)
class RoundStart(ObsEvent):
    """An adaptation round begins (one monitoring interval)."""

    round: int
    stages: int  # stages in the live plan

    kind: ClassVar[str] = "round.start"


@_register
@dataclass(frozen=True)
class WindowSnapshot(ObsEvent):
    """The metrics window the round observed, with per-stage estimates.

    ``stages`` maps stage name to ``{lambda_p, lambda_hat, utilization,
    backlog, backlog_growth}``; ``links`` maps ``"src->dst"`` to
    ``{inflow_eps, backlog}`` aggregated over destination stages.  This is
    the event the Prometheus exporter turns into gauges.
    """

    t_start_s: float
    t_end_s: float
    offered_eps: float
    mean_delay_s: float
    stages: dict
    links: dict

    kind: ClassVar[str] = "window"


@_register
@dataclass(frozen=True)
class Diagnose(ObsEvent):
    """One stage's health verdict (Section 3.2)."""

    stage: str
    health: str
    utilization: float
    expected_input_eps: float
    capacity_eps: float
    backlog: float
    backlog_growth: float
    slow_sites: list

    kind: ClassVar[str] = "diagnose"


@_register
@dataclass(frozen=True)
class Decide(ObsEvent):
    """The policy chose an action for a stage (Figure 6)."""

    stage: str
    action: str
    reason: str

    kind: ClassVar[str] = "decide"


@_register
@dataclass(frozen=True)
class RoundEnd(ObsEvent):
    """The adaptation round finished."""

    round: int
    decided: int  # actions the policy proposed
    executed: int  # actions that committed

    kind: ClassVar[str] = "round.end"


# -- transactional execution ------------------------------------------------ #


@_register
@dataclass(frozen=True)
class AttemptStart(ObsEvent):
    """One technique of the Figure-6 fallback chain begins."""

    stage: str
    attempt: str  # "primary", "retry-1", "scale-out", "abandon-state"
    action: str
    reason: str

    kind: ClassVar[str] = "attempt.start"


@_register
@dataclass(frozen=True)
class Validate(ObsEvent):
    """Pre-apply validation passed for the attempt's action."""

    stage: str
    action: str

    kind: ClassVar[str] = "validate"


@_register
@dataclass(frozen=True)
class Snapshot(ObsEvent):
    """The transaction captured its rollback snapshot."""

    stage: str

    kind: ClassVar[str] = "snapshot"


@_register
@dataclass(frozen=True)
class Apply(ObsEvent):
    """The action's apply path completed (not yet verified)."""

    stage: str
    action: str
    transition_s: float

    kind: ClassVar[str] = "apply"


@_register
@dataclass(frozen=True)
class Verify(ObsEvent):
    """Post-apply consistency verification passed."""

    stage: str

    kind: ClassVar[str] = "verify"


@_register
@dataclass(frozen=True)
class Commit(ObsEvent):
    """The attempt committed; the adaptation is now live."""

    stage: str
    attempt: str
    action: str
    reason: str
    transition_s: float

    kind: ClassVar[str] = "commit"


@_register
@dataclass(frozen=True)
class Rollback(ObsEvent):
    """The attempt rolled back to the pre-action snapshot."""

    stage: str
    attempt: str
    error: str

    kind: ClassVar[str] = "rollback"


@_register
@dataclass(frozen=True)
class FallbackHop(ObsEvent):
    """The chain moved to the next technique after a rollback."""

    stage: str
    from_attempt: str
    to_attempt: str

    kind: ClassVar[str] = "fallback"


@_register
@dataclass(frozen=True)
class Abandoned(ObsEvent):
    """Every technique in the fallback chain rolled back."""

    stage: str
    action: str

    kind: ClassVar[str] = "abandoned"


# -- state migration -------------------------------------------------------- #


@_register
@dataclass(frozen=True)
class MigrateStart(ObsEvent):
    """A migration plan with >= 1 transfer (or abandonment) was computed."""

    stage: str
    strategy: str
    transfers: int
    total_mb: float

    kind: ClassVar[str] = "migrate.start"


@_register
@dataclass(frozen=True)
class MigrateTransfer(ObsEvent):
    """One state partition's WAN transfer within a migration plan."""

    stage: str
    from_site: str
    to_site: str
    size_mb: float
    bytes: float
    bandwidth_mbps: float
    duration_s: float

    kind: ClassVar[str] = "migrate.transfer"


@_register
@dataclass(frozen=True)
class MigrateEnd(ObsEvent):
    """Migration plan fully described; cost is the slowest transfer."""

    stage: str
    transition_s: float
    abandoned_mb: float

    kind: ClassVar[str] = "migrate.end"


# -- environment ------------------------------------------------------------ #


@_register
@dataclass(frozen=True)
class ChaosFault(ObsEvent):
    """A chaos fault fired (``phase="apply"``) or reverted."""

    fault: str
    detail: str
    phase: str

    kind: ClassVar[str] = "chaos.fault"


@_register
@dataclass(frozen=True)
class Checkpoint(ObsEvent):
    """One localized checkpoint round (Section 5)."""

    records: int
    total_mb: float
    skipped_sites: list

    kind: ClassVar[str] = "checkpoint"


@_register
@dataclass(frozen=True)
class Restore(ObsEvent):
    """Checkpoint-replay recovery re-queued a failed site's lost window."""

    stage: str
    site: str
    events: float
    replay_window_s: float

    kind: ClassVar[str] = "restore"


# -- spans ------------------------------------------------------------------ #


@_register
@dataclass(frozen=True)
class SpanStart(ObsEvent):
    """A named span opened (children nest via the envelope's ``parent``)."""

    name: str

    kind: ClassVar[str] = "span.start"


@_register
@dataclass(frozen=True)
class SpanEnd(ObsEvent):
    """The matching span closed; ``duration_s`` is in simulated time."""

    name: str
    duration_s: float

    kind: ClassVar[str] = "span.end"


# --------------------------------------------------------------------------- #
# The bus
# --------------------------------------------------------------------------- #


class EventBus:
    """Fans typed events out to sinks, stamping sequence and span ids.

    ``bool(bus)`` is False while no sink is attached, and :meth:`emit` then
    returns before building a record.  Span ids are deterministic (``s1``,
    ``s2``, ... in emission order), so traces of the same seed are
    byte-identical.
    """

    __slots__ = ("_sinks", "_seq", "_span_stack", "_span_counter")

    def __init__(self) -> None:
        self._sinks: list[Sink] = []
        self._seq = 0
        self._span_stack: list[str] = []
        self._span_counter = 0

    def __bool__(self) -> bool:
        return bool(self._sinks)

    # -- sink management ---------------------------------------------------- #

    def attach(self, sink: Sink) -> Sink:
        """Attach a sink; returns it for chaining."""
        self._sinks.append(sink)
        return sink

    def close(self) -> None:
        """Close and detach every sink."""
        for sink in self._sinks:
            sink.close()
        self._sinks.clear()

    # -- emission ----------------------------------------------------------- #

    def emit(self, event: ObsEvent) -> None:
        """Stamp and deliver the event's records (:meth:`ObsEvent.expand`)
        to every sink."""
        if not self._sinks:
            return
        span = self._span_stack[-1] if self._span_stack else None
        parent = (
            self._span_stack[-2] if len(self._span_stack) >= 2 else None
        )
        for part in event.expand():
            self._seq += 1
            record = {
                "schema": SCHEMA,
                "seq": self._seq,
                "t_s": part.t_s,
                "kind": part.kind,
                "span": span,
                "parent": parent,
            }
            record.update(part.payload())
            for sink in self._sinks:
                sink.write(record)

    @contextmanager
    def span(self, name: str, t_s: float) -> Iterator[str | None]:
        """Open a named span; events emitted inside nest under it.

        The span-start/-end records carry the new span's own id in the
        ``span`` envelope field and the enclosing span in ``parent``, so a
        reader can rebuild the tree from ``span``/``parent`` alone.  When
        no sink is attached this is a no-op yielding ``None``.
        """
        if not self._sinks:
            yield None
            return
        self._span_counter += 1
        span_id = f"s{self._span_counter}"
        self._span_stack.append(span_id)
        self.emit(SpanStart(t_s, name))
        try:
            yield span_id
        finally:
            # Close at the same simulated time by default; callers that
            # span multiple ticks emit their own end time via events.
            self.emit(SpanEnd(t_s, name, 0.0))
            self._span_stack.pop()


# --------------------------------------------------------------------------- #
# Schema validation
# --------------------------------------------------------------------------- #


def validate_record(record: dict) -> list[str]:
    """Check one emitted/parsed record against the event schema.

    Returns a list of problems (empty = valid).  Used by ``repro trace``
    and the CI smoke job to reject malformed JSONL lines.
    """
    problems: list[str] = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, not an object"]
    if record.get("schema") != SCHEMA:
        problems.append(
            f"schema is {record.get('schema')!r}, expected {SCHEMA!r}"
        )
    for name in ("seq", "t_s", "kind"):
        if name not in record:
            problems.append(f"missing envelope field {name!r}")
    if not isinstance(record.get("seq"), int):
        problems.append("seq must be an integer")
    if not isinstance(record.get("t_s"), (int, float)):
        problems.append("t_s must be a number")
    for name in ("span", "parent"):
        value = record.get(name)
        if value is not None and not isinstance(value, str):
            problems.append(f"{name} must be a string or null")
    kind = record.get("kind")
    entry = EVENT_TYPES.get(kind) if isinstance(kind, str) else None
    if entry is None:
        problems.append(f"unknown event kind {kind!r}")
        return problems
    _, payload_fields = entry
    expected = set(payload_fields)
    present = set(record) - set(ENVELOPE_FIELDS)
    missing = expected - present
    extra = present - expected
    if missing:
        problems.append(f"{kind}: missing field(s) {sorted(missing)}")
    if extra:
        problems.append(f"{kind}: unexpected field(s) {sorted(extra)}")
    return problems


def require_valid(record: dict) -> dict:
    """Raise :class:`~repro.errors.ObsError` unless ``record`` validates."""
    problems = validate_record(record)
    if problems:
        raise ObsError(
            "invalid obs record: " + "; ".join(problems)
        )
    return record
