"""Trace reconstruction: spans, adaptation rounds and the CLI timeline.

The JSONL trace a run emits is a flat, strictly-ordered stream of envelope
records.  This module rebuilds the structures a human (or an assertion)
wants from it:

* :func:`build_spans` - the span tree (adaptation rounds nest attempts,
  attempts nest migrations) from the ``span``/``parent`` envelope fields;
* :func:`reconstruct` - per-round :class:`RoundTrace` objects in which every
  action's full Figure-6 fallback chain is replayed: each
  :class:`AttemptTrace` carries its outcome, error, migration transfers
  (size, bandwidth, duration) and the hop that led to it;
* :func:`render_timeline` - the text view ``python -m repro trace`` prints.

Reconstruction is the inverse of the controller's instrumentation: an
integration test round-trips a chaos run through JSONL and asserts that
every committed and rolled-back adaptation is recovered exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ObsError
from .events import validate_record


@dataclass
class Span:
    """One reconstructed span with its nested children."""

    span_id: str
    parent_id: str | None
    name: str
    t_start_s: float
    t_end_s: float | None = None
    children: list["Span"] = field(default_factory=list)

    @property
    def duration_s(self) -> float | None:
        if self.t_end_s is None:
            return None
        return self.t_end_s - self.t_start_s


def build_spans(records: list[dict]) -> list[Span]:
    """Rebuild the span forest from ``span.start``/``span.end`` records.

    Returns the root spans (those with no parent) in start order; children
    are nested.  Unclosed spans keep ``t_end_s=None``.
    """
    by_id: dict[str, Span] = {}
    roots: list[Span] = []
    for record in records:
        kind = record.get("kind")
        if kind == "span.start":
            span = Span(
                span_id=record.get("span") or "",
                parent_id=record.get("parent"),
                name=str(record.get("name", "")),
                t_start_s=float(record.get("t_s", 0.0)),
            )
            by_id[span.span_id] = span
            parent = by_id.get(span.parent_id) if span.parent_id else None
            if parent is not None:
                parent.children.append(span)
            else:
                roots.append(span)
        elif kind == "span.end":
            span = by_id.get(record.get("span") or "")
            if span is not None:
                span.t_end_s = float(record.get("t_s", 0.0))
    return roots


# --------------------------------------------------------------------------- #
# Adaptation-round reconstruction
# --------------------------------------------------------------------------- #


@dataclass
class TransferTrace:
    """One state transfer recovered from a ``migrate.transfer`` record."""

    from_site: str
    to_site: str
    size_mb: float
    bandwidth_mbps: float
    duration_s: float


@dataclass
class AttemptTrace:
    """One technique of the fallback chain, as the trace recorded it."""

    t_s: float
    stage: str
    label: str  # "primary", "retry-1", "scale-out", "abandon-state"
    action: str
    reason: str
    outcome: str = "in-flight"  # "committed" | "rolled-back"
    error: str = ""
    transition_s: float = 0.0
    strategy: str = ""
    transfers: list[TransferTrace] = field(default_factory=list)
    abandoned_mb: float = 0.0

    @property
    def migration_mb(self) -> float:
        return sum(t.size_mb for t in self.transfers)

    @property
    def migration_s(self) -> float:
        return max((t.duration_s for t in self.transfers), default=0.0)


@dataclass
class ActionTrace:
    """One decided action replayed through its full fallback chain."""

    stage: str
    action: str
    reason: str
    attempts: list[AttemptTrace] = field(default_factory=list)
    hops: list[tuple[str, str]] = field(default_factory=list)
    abandoned: bool = False

    @property
    def committed(self) -> AttemptTrace | None:
        for attempt in self.attempts:
            if attempt.outcome == "committed":
                return attempt
        return None

    @property
    def rolled_back(self) -> list[AttemptTrace]:
        return [a for a in self.attempts if a.outcome == "rolled-back"]


@dataclass
class RoundTrace:
    """One adaptation round (monitoring interval) of the control loop."""

    round: int
    t_s: float
    diagnoses: list[dict] = field(default_factory=list)
    decisions: list[dict] = field(default_factory=list)
    actions: list[ActionTrace] = field(default_factory=list)
    window: dict | None = None


@dataclass
class TraceSummary:
    """Everything :func:`reconstruct` recovers from one trace."""

    rounds: list[RoundTrace] = field(default_factory=list)
    #: actions executed outside any round (``manager.execute`` calls)
    orphan_actions: list[ActionTrace] = field(default_factory=list)
    faults: list[dict] = field(default_factory=list)
    checkpoints: list[dict] = field(default_factory=list)
    restores: list[dict] = field(default_factory=list)
    t_min_s: float = 0.0
    t_max_s: float = 0.0
    records: int = 0

    @property
    def all_actions(self) -> list[ActionTrace]:
        out = list(self.orphan_actions)
        for rnd in self.rounds:
            out.extend(rnd.actions)
        return out


def reconstruct(records: list[dict]) -> TraceSummary:
    """Replay a record stream into rounds, fallback chains and migrations.

    The stream must be seq-ordered (JSONL written by one bus always is).
    Every record is schema-checked first and the first invalid one raises
    :class:`~repro.errors.ObsError`.
    """
    for i, record in enumerate(records):
        problems = validate_record(record)
        if problems:
            raise ObsError(
                f"record {i + 1} (seq {record.get('seq')!r}): "
                + "; ".join(problems)
            )

    summary = TraceSummary(records=len(records))
    current_round: RoundTrace | None = None
    current_action: ActionTrace | None = None
    current_attempt: AttemptTrace | None = None
    times = [float(r["t_s"]) for r in records if "t_s" in r]
    if times:
        summary.t_min_s = min(times)
        summary.t_max_s = max(times)

    def close_action() -> None:
        nonlocal current_action, current_attempt
        if current_action is not None:
            target = (
                current_round.actions
                if current_round is not None
                else summary.orphan_actions
            )
            target.append(current_action)
        current_action = None
        current_attempt = None

    for record in records:
        kind = record.get("kind")
        t_s = float(record.get("t_s", 0.0))
        if kind == "round.start":
            close_action()
            current_round = RoundTrace(
                round=int(record.get("round", 0)), t_s=t_s
            )
            summary.rounds.append(current_round)
        elif kind == "round.end":
            close_action()
            current_round = None
        elif kind == "window":
            if current_round is not None:
                current_round.window = record
        elif kind == "diagnose":
            if current_round is not None:
                current_round.diagnoses.append(record)
        elif kind == "decide":
            if current_round is not None:
                current_round.decisions.append(record)
        elif kind == "attempt.start":
            label = str(record.get("attempt", ""))
            if label == "primary" or current_action is None:
                close_action()
                current_action = ActionTrace(
                    stage=str(record.get("stage", "")),
                    action=str(record.get("action", "")),
                    reason=str(record.get("reason", "")),
                )
            current_attempt = AttemptTrace(
                t_s=t_s,
                stage=str(record.get("stage", "")),
                label=label,
                action=str(record.get("action", "")),
                reason=str(record.get("reason", "")),
            )
            current_action.attempts.append(current_attempt)
        elif kind == "fallback":
            if current_action is not None:
                current_action.hops.append(
                    (
                        str(record.get("from_attempt", "")),
                        str(record.get("to_attempt", "")),
                    )
                )
        elif kind == "migrate.start":
            if current_attempt is not None:
                current_attempt.strategy = str(record.get("strategy", ""))
        elif kind == "migrate.transfer":
            if current_attempt is not None:
                current_attempt.transfers.append(
                    TransferTrace(
                        from_site=str(record.get("from_site", "")),
                        to_site=str(record.get("to_site", "")),
                        size_mb=float(record.get("size_mb", 0.0)),
                        bandwidth_mbps=float(
                            record.get("bandwidth_mbps", 0.0)
                        ),
                        duration_s=float(record.get("duration_s", 0.0)),
                    )
                )
        elif kind == "migrate.end":
            if current_attempt is not None:
                current_attempt.abandoned_mb += float(
                    record.get("abandoned_mb", 0.0)
                )
        elif kind == "commit":
            if current_attempt is not None:
                current_attempt.outcome = "committed"
                current_attempt.transition_s = float(
                    record.get("transition_s", 0.0)
                )
            close_action()
        elif kind == "rollback":
            if current_attempt is not None:
                current_attempt.outcome = "rolled-back"
                current_attempt.error = str(record.get("error", ""))
                current_attempt = None
        elif kind == "abandoned":
            if current_action is not None:
                current_action.abandoned = True
            close_action()
        elif kind == "chaos.fault":
            summary.faults.append(record)
        elif kind == "checkpoint":
            summary.checkpoints.append(record)
        elif kind == "restore":
            summary.restores.append(record)
    close_action()
    return summary


# --------------------------------------------------------------------------- #
# Rendering
# --------------------------------------------------------------------------- #


def _render_action(action: ActionTrace, indent: str) -> list[str]:
    lines = [
        f"{indent}[{action.stage}] {action.action}: {action.reason}"
    ]
    for attempt in action.attempts:
        detail = ""
        if attempt.outcome == "committed":
            if attempt.transfers:
                detail = (
                    f"  migrated {attempt.migration_mb:.1f} MB in "
                    f"{attempt.migration_s:.1f}s over "
                    f"{len(attempt.transfers)} transfer(s)"
                )
            if attempt.abandoned_mb > 0:
                detail += f"  abandoned {attempt.abandoned_mb:.1f} MB"
            detail += f"  transition {attempt.transition_s:.1f}s"
        elif attempt.outcome == "rolled-back":
            detail = f"  {attempt.error}"
        lines.append(
            f"{indent}  {attempt.label:<14}{attempt.outcome:<12}{detail}"
        )
    if action.abandoned:
        lines.append(
            f"{indent}  -> abandoned: every technique rolled back"
        )
    return lines


def render_timeline(records: list[dict]) -> str:
    """The ``repro trace`` view: rounds, faults, fallbacks, migrations
    (every record is schema-checked first)."""
    summary = reconstruct(records)
    actions = summary.all_actions
    committed = sum(1 for a in actions if a.committed is not None)
    abandoned = sum(1 for a in actions if a.abandoned)
    rollbacks = sum(len(a.rolled_back) for a in actions)
    header = [
        f"trace: {summary.records} events, "
        f"t={summary.t_min_s:.1f}s..{summary.t_max_s:.1f}s",
        f"rounds: {len(summary.rounds)}  actions: {committed} committed, "
        f"{rollbacks} rolled-back attempts, {abandoned} abandoned  "
        f"faults: {len(summary.faults)}  "
        f"checkpoints: {len(summary.checkpoints)}  "
        f"restores: {len(summary.restores)}",
        "",
    ]

    # Merge rounds, orphan actions and faults into one time-ordered list.
    entries: list[tuple[float, int, list[str]]] = []
    for i, rnd in enumerate(summary.rounds):
        unhealthy = [
            d for d in rnd.diagnoses if d.get("health") != "healthy"
        ]
        lines = [
            f"t={rnd.t_s:7.1f}s  round {rnd.round}: "
            f"{len(rnd.diagnoses)} stage(s) diagnosed"
            + (f", {len(unhealthy)} unhealthy" if unhealthy else "")
            + f", {len(rnd.actions)} action(s)"
        ]
        for diag in unhealthy:
            lines.append(
                f"             {diag.get('stage')}: {diag.get('health')} "
                f"(util {float(diag.get('utilization', 0.0)):.2f}, "
                f"backlog {float(diag.get('backlog', 0.0)):.0f})"
            )
        for action in rnd.actions:
            lines.extend(_render_action(action, "             "))
        entries.append((rnd.t_s, i, lines))
    offset = len(summary.rounds)
    for i, action in enumerate(summary.orphan_actions):
        t_s = action.attempts[0].t_s if action.attempts else 0.0
        lines = [f"t={t_s:7.1f}s  direct action:"]
        lines.extend(_render_action(action, "             "))
        entries.append((t_s, offset + i, lines))
    offset += len(summary.orphan_actions)
    for i, fault in enumerate(summary.faults):
        t_s = float(fault.get("t_s", 0.0))
        phase = fault.get("phase", "apply")
        marker = "fault" if phase == "apply" else "fault-revert"
        entries.append(
            (
                t_s,
                offset + i,
                [
                    f"t={t_s:7.1f}s  {marker} {fault.get('fault')}: "
                    f"{fault.get('detail')}"
                ],
            )
        )
    offset += len(summary.faults)
    for i, restore in enumerate(summary.restores):
        t_s = float(restore.get("t_s", 0.0))
        entries.append(
            (
                t_s,
                offset + i,
                [
                    f"t={t_s:7.1f}s  restore {restore.get('stage')}@"
                    f"{restore.get('site')}: replay "
                    f"{float(restore.get('events', 0.0)):.0f} events over "
                    f"{float(restore.get('replay_window_s', 0.0)):.0f}s"
                ],
            )
        )
    entries.sort(key=lambda e: (e[0], e[1]))
    body = [line for _, _, lines in entries for line in lines]
    return "\n".join(header + body)
