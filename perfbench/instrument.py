"""Outside-in measurement hooks shared by every workload.

:class:`Patches` swaps attributes on classes and modules and puts every one
back.  :class:`StepProbe` times each simulated step and reads each run's
work counts (:class:`RunCounts`) from public state; two runs of the same
code and inputs must agree on those counts exactly, which makes them the
benchmark's own determinism check.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from repro.experiments.harness import ExperimentRun

#: Ticks between two samples of a run's queues (queue peaks are read there
#: and at the end of the run).
QUEUE_SAMPLE_TICKS = 10


class Patches:
    """Attribute swaps on classes and modules, undone by :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``.

        Only attributes ``owner`` defines itself may be wrapped, so that
        restoring never leaves a copy shadowing an inherited one.
        """
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


@dataclass
class RunCounts:
    """Work one run did, read from public state during and after it."""

    name: str
    ticks: int = 0
    #: Events moved over the WAN (sum of ``TickReport.net_sent``).
    net_events: float = 0.0
    queued_peak: float = 0.0
    parcels_peak: int = 0
    #: ``attempt_log`` outcome -> count.
    attempts: dict[str, int] = field(default_factory=dict)
    #: ``history`` action kind -> count.
    history: dict[str, int] = field(default_factory=dict)
    migrated_mb: float = 0.0
    faults: int = 0


def sample_queues(counts: RunCounts, runtime) -> None:
    """Fold the runtime's current queue totals into the run's peaks."""
    events = 0.0
    parcels = 0
    for _table, _key, queue in runtime.iter_queues():
        events += queue.count
        parcels += len(queue)
    counts.queued_peak = max(counts.queued_peak, events)
    counts.parcels_peak = max(counts.parcels_peak, parcels)


def after_tick(counts: RunCounts, runtime) -> None:
    counts.ticks += 1
    counts.net_events += sum(runtime.last_report.net_sent.values())
    if counts.ticks % QUEUE_SAMPLE_TICKS == 0:
        sample_queues(counts, runtime)


@dataclass
class Timing:
    """Wall time of one job and of each simulated step it ran."""

    wall_s: float
    steps: list[float]
    #: Parallel to ``steps``: did an adaptation round fire in that step?
    rounds: list[bool]

    def fastest(self, other: "Timing") -> "Timing":
        """Elementwise minimum with a repeat of the same job.

        Noise on a shared machine only ever adds time, so the faster of two
        repeats of a deterministic job is the better estimate of each step.
        """
        return Timing(
            min(self.wall_s, other.wall_s),
            [min(a, b) for a, b in zip(self.steps, other.steps)],
            self.rounds[: len(other.steps)],
        )


class StepProbe:
    """Step wall times plus per-run work counts.

    :meth:`install` wraps ``ExperimentRun.step`` and ``ExperimentRun.run``
    at class level, so runs built inside library code (a fuzz campaign) are
    measured the same way as runs the benchmark builds itself.  A step is a
    *round step* when the run's controller took a new metrics window during
    it, i.e. an adaptation round fired.
    """

    def __init__(self, calibration) -> None:
        #: Sampled between steps, outside every timed region.
        self.calibration = calibration
        self.step_s: list[float] = []
        self.rounds: list[bool] = []
        self.runs: list[RunCounts] = []
        self._live: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def install(self, patches: Patches) -> None:
        patches.wrap(ExperimentRun, "step", self._wrap_step)
        patches.wrap(ExperimentRun, "run", self._wrap_run)

    def new_counts(self, name: str) -> RunCounts:
        counts = RunCounts(name)
        self.runs.append(counts)
        return counts

    def counts(self, run: ExperimentRun) -> RunCounts:
        counts = self._live.get(run)
        if counts is None:
            counts = self._live[run] = self.new_counts(run.recorder.name)
        return counts

    def record_step(self, wall_s: float, round_fired: bool) -> None:
        self.step_s.append(wall_s)
        self.rounds.append(round_fired)
        self.calibration.tick()

    def measure(self, job):
        """Call ``job()``; returns its result (or the exception it raised)
        and the :class:`Timing` of everything it stepped."""
        first = len(self.step_s)
        spent = self.calibration.spent_s
        start = perf_counter()
        try:
            result = job()
        except Exception as exc:  # noqa: BLE001 - the caller counts it failed
            result = exc
        wall = perf_counter() - start - (self.calibration.spent_s - spent)
        return result, Timing(wall, self.step_s[first:], self.rounds[first:])

    def finish(self, run: ExperimentRun) -> None:
        """Read the run's end-of-run counts (idempotent: totals, not deltas)."""
        counts = self.counts(run)
        sample_queues(counts, run.runtime)
        counts.faults = len(run.recorder.faults)
        manager = run.manager
        if manager is None:
            return
        counts.attempts = dict(Counter(a.outcome for a in manager.attempt_log))
        counts.history = dict(Counter(r.kind.value for r in manager.history))
        counts.migrated_mb = sum(
            r.migration.total_mb
            for r in manager.history
            if r.migration is not None
        )

    def _wrap_step(self, step):
        def timed_step(run, *args, **kwargs):
            manager = run.manager
            window = manager.last_window if manager is not None else None
            start = perf_counter()
            sample = step(run, *args, **kwargs)
            wall = perf_counter() - start
            self.record_step(
                wall, manager is not None and manager.last_window is not window
            )
            after_tick(self.counts(run), run.runtime)
            return sample

        return timed_step

    def _wrap_run(self, run_method):
        def finished_run(run, *args, **kwargs):
            recorder = run_method(run, *args, **kwargs)
            self.finish(run)
            return recorder

        return finished_run

    def totals(self) -> dict[str, tuple[float, str]]:
        """Work counts summed (peaks: maximised) over every run measured,
        as ``name -> (value, unit)``."""
        attempts: Counter = Counter()
        for counts in self.runs:
            attempts.update(counts.attempts)
        commits = attempts["committed"]
        tried = commits + attempts["rolled-back"]
        runs = self.runs
        return {
            "engine.net_events": (sum(c.net_events for c in runs), "events"),
            "engine.queued_events.peak": (
                max((c.queued_peak for c in runs), default=0.0),
                "events",
            ),
            "engine.parcels.peak": (
                max((c.parcels_peak for c in runs), default=0),
                "count",
            ),
            "core.attempts": (tried, "count"),
            "core.commits": (commits, "count"),
            "core.rollbacks": (attempts["rolled-back"], "count"),
            "core.abandoned": (attempts["abandoned"], "count"),
            "core.commit_ratio": (commits / tried if tried else 0.0, "ratio"),
            "core.migrated_mb": (sum(c.migrated_mb for c in runs), "MB"),
            "chaos.faults": (sum(c.faults for c in runs), "count"),
        }
