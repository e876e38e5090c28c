"""Event sinks: ring buffer, JSONL writer, Prometheus textfile exporter.

A sink receives the envelope dicts the :class:`~repro.obs.events.EventBus`
emits.  Three are provided:

* :class:`RingBufferSink` - bounded in-memory buffer, the tool for tests
  and interactive inspection;
* :class:`JsonlSink` - one JSON object per line with the bus's stable field
  ordering preserved, the on-disk trace format ``repro trace`` reads;
* :class:`PrometheusTextfileSink` - renders the latest metrics ``window``
  event plus lifecycle counters into the Prometheus textfile-collector
  format (node_exporter's ``--collector.textfile.directory`` convention),
  fed from :class:`~repro.engine.metrics.GlobalMetricMonitor` windows via
  the controller's ``window`` events.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import IO

from ..errors import ObsError


class RingBufferSink:
    """Keep the most recent ``capacity`` records in memory."""

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ObsError(f"capacity must be > 0, got {capacity}")
        self._buffer: deque[dict] = deque(maxlen=capacity)

    def write(self, record: dict) -> None:
        self._buffer.append(record)

    def close(self) -> None:
        pass

    @property
    def records(self) -> list[dict]:
        return list(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)


class JsonlSink:
    """Append each record as one JSON line to a file (or file-like).

    Field ordering follows dict insertion order - the bus builds records
    envelope-first, payload in dataclass declaration order - so two runs of
    the same seed produce byte-identical traces.
    """

    def __init__(self, target: str | Path | IO[str]) -> None:
        if hasattr(target, "write"):
            self._file: IO[str] = target  # type: ignore[assignment]
            self._owns = False
            self.path: Path | None = None
        else:
            self.path = Path(target)
            self._file = self.path.open("w", encoding="utf-8")
            self._owns = True

    def write(self, record: dict) -> None:
        self._file.write(json.dumps(record, separators=(",", ":")))
        self._file.write("\n")

    def close(self) -> None:
        if self._owns and not self._file.closed:
            self._file.close()
        elif not self._owns:
            try:
                self._file.flush()
            except ValueError:  # pragma: no cover - already-closed stream
                pass

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_jsonl(path: str | Path) -> list[dict]:
    """Parse a JSONL trace file; raises :class:`ObsError` on malformed JSON."""
    records: list[dict] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ObsError(
                    f"{path}:{lineno}: malformed JSON: {exc}"
                ) from exc
    return records


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


class PrometheusTextfileSink:
    """Exports the control loop's state as Prometheus textfile metrics.

    Gauges come from the latest ``window`` event (per-stage estimated
    workload, utilization and backlog; per-link inflow and backlog);
    counters accumulate over the run (committed/rolled-back adaptations,
    migrated state, chaos faults, checkpoints).  The file is rewritten
    atomically-enough (single ``write_text``) on every window and on
    :meth:`close`, matching the node_exporter textfile-collector contract.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._window: dict | None = None
        self._commits = 0
        self._rollbacks = 0
        self._abandoned = 0
        self._faults: dict[str, int] = {}
        self._migrated_mb = 0.0
        self._migration_transfers = 0
        self._checkpoints = 0
        self._state_abandoned_mb = 0.0

    def write(self, record: dict) -> None:
        kind = record.get("kind")
        if kind == "window":
            self._window = record
            self.flush()
        elif kind == "commit":
            self._commits += 1
        elif kind == "rollback":
            self._rollbacks += 1
        elif kind == "abandoned":
            self._abandoned += 1
        elif kind == "chaos.fault":
            fault = str(record.get("fault", "unknown"))
            self._faults[fault] = self._faults.get(fault, 0) + 1
        elif kind == "migrate.transfer":
            self._migrated_mb += float(record.get("size_mb", 0.0))
            self._migration_transfers += 1
        elif kind == "migrate.end":
            self._state_abandoned_mb += float(
                record.get("abandoned_mb", 0.0)
            )
        elif kind == "checkpoint":
            self._checkpoints += 1

    def close(self) -> None:
        self.flush()

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #

    def render(self) -> str:
        """The textfile body (also written by :meth:`flush`)."""
        lines: list[str] = []

        def metric(
            name: str, help_: str, type_: str, samples: list[tuple[str, float]]
        ) -> None:
            if not samples:
                return
            lines.append(f"# HELP {name} {help_}")
            lines.append(f"# TYPE {name} {type_}")
            for labels, value in samples:
                lines.append(f"{name}{labels} {value!r}")

        window = self._window
        if window is not None:
            stage_rows = sorted((window.get("stages") or {}).items())
            for field, help_ in (
                ("lambda_p", "observed processing rate over the window"),
                ("lambda_hat", "estimated actual (unthrottled) workload"),
                ("utilization", "fraction of processing capacity in use"),
                ("backlog", "input backlog at window end (events)"),
            ):
                unit = "" if field == "utilization" else (
                    "_eps" if field.startswith("lambda") else "_events"
                )
                metric(
                    f"wasp_stage_{field}{unit}",
                    help_,
                    "gauge",
                    [
                        (
                            f'{{stage="{_escape_label(name)}"}}',
                            float(stats.get(field, 0.0)),
                        )
                        for name, stats in stage_rows
                    ],
                )
            link_rows = sorted((window.get("links") or {}).items())
            metric(
                "wasp_link_inflow_eps",
                "events/s transferred inbound over each WAN link",
                "gauge",
                [
                    (
                        f'{{link="{_escape_label(link)}"}}',
                        float(stats.get("inflow_eps", 0.0)),
                    )
                    for link, stats in link_rows
                ],
            )
            metric(
                "wasp_link_backlog_events",
                "inbound WAN backlog at window end",
                "gauge",
                [
                    (
                        f'{{link="{_escape_label(link)}"}}',
                        float(stats.get("backlog", 0.0)),
                    )
                    for link, stats in link_rows
                ],
            )
            metric(
                "wasp_window_end_seconds",
                "simulated time at the end of the exported window",
                "gauge",
                [("", float(window.get("t_end_s", 0.0)))],
            )
        metric(
            "wasp_adaptations_total",
            "adaptation attempts by outcome",
            "counter",
            [
                ('{outcome="committed"}', float(self._commits)),
                ('{outcome="rolled-back"}', float(self._rollbacks)),
                ('{outcome="abandoned"}', float(self._abandoned)),
            ],
        )
        metric(
            "wasp_migration_state_mb_total",
            "state shipped across the WAN by adaptations",
            "counter",
            [("", self._migrated_mb)],
        )
        metric(
            "wasp_migration_transfers_total",
            "individual state-partition transfers",
            "counter",
            [("", float(self._migration_transfers))],
        )
        metric(
            "wasp_state_abandoned_mb_total",
            "state abandoned instead of migrated",
            "counter",
            [("", self._state_abandoned_mb)],
        )
        metric(
            "wasp_checkpoint_rounds_total",
            "localized checkpoint rounds taken",
            "counter",
            [("", float(self._checkpoints))],
        )
        metric(
            "wasp_chaos_faults_total",
            "chaos fault firings and reverts by fault kind",
            "counter",
            [
                (f'{{fault="{_escape_label(fault)}"}}', float(count))
                for fault, count in sorted(self._faults.items())
            ],
        )
        return "\n".join(lines) + ("\n" if lines else "")

    def flush(self) -> None:
        self.path.write_text(self.render(), encoding="utf-8")
