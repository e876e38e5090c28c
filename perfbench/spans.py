"""Span recorder for the traced run, and the per-layer table built from it.

The traced run wraps calls into each layer's public functions from outside
the program: class attributes (so runs built inside library code are
traced too) and, where a caller imported a function by name, that name in
the caller's module.  Each call becomes a span ``(id, parent, run, name,
start_s, end_s, self_s)`` kept in memory; ``self_s`` is the span's duration
minus the time its child spans cover.  Spans of one simulated run share a
run id.
"""

from __future__ import annotations

import gzip
import itertools
import json
from collections import Counter
from functools import partial
from time import perf_counter

import numpy as np

from repro.chaos.injector import ChaosInjector
from repro.core import policy, replanning
from repro.core.controller import ReconfigurationManager
from repro.core.diagnosis import Diagnoser
from repro.core.estimator import WorkloadEstimator
from repro.engine.checkpoint import CheckpointCoordinator
from repro.engine.dense import DenseEngineRuntime
from repro.engine.metrics import GlobalMetricMonitor
from repro.engine.runtime import EngineRuntime
from repro.experiments import harness
from repro.fuzz import campaign
from repro.fuzz.invariants import InvariantChecker
from repro.network.monitor import WanMonitor
from repro.planner import cost
from repro.sim.recorder import RunRecorder

SPAN_FIELDS = ("id", "parent", "run", "name", "start_s", "end_s", "self_s")

#: Per-layer metrics read off the spans: ``<span name>.<statistic>``.
SPAN_METRICS = (
    "engine.tick.calls",
    "engine.tick.self_s",
    "engine.tick.us_p50",
    "engine.metrics.collect.calls",
    "engine.metrics.collect.self_s",
    "engine.metrics.observe.self_s",
    "network.refresh.calls",
    "network.refresh.self_s",
    "network.remeasure.calls",
    "core.round.calls",
    "core.round.self_s",
    "core.round.ms_p50",
    "core.round.ms_p90",
    "core.estimate.self_s",
    "core.diagnose.self_s",
    "core.decide.self_s",
    "engine.snapshot.calls",
    "engine.snapshot.self_s",
    "engine.replace_plan.calls",
    "engine.replace_plan.self_s",
    "engine.checkpoint.calls",
    "engine.checkpoint.self_s",
    "planner.deploy.calls",
    "planner.deploy.self_s",
    "planner.solve.calls",
    "planner.solve.self_s",
    "experiments.build.self_s",
    "experiments.step.self_s",
    "chaos.tick.self_s",
    "fuzz.generate.self_s",
    "fuzz.check.self_s",
    "fuzz.replay.self_s",
    "sim.record.self_s",
    "sim.digest.self_s",
)

#: Unit and scale of each span statistic.
_STATS = {
    "calls": ("count", None),
    "self_s": ("s", None),
    "us_p50": ("us", (50, 1e6)),
    "ms_p50": ("ms", (50, 1e3)),
    "ms_p90": ("ms", (90, 1e3)),
}


class Tracer:
    """In-memory span recorder; :meth:`wrap` turns a callable into a span."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: Extra call counters kept beside the spans (``obs.events``).
        self.calls: Counter = Counter()
        self.run = 0
        self._stack: list[list] = []  # open spans: [id, name, child_s]
        self._ids = itertools.count(1)

    def new_run(self) -> None:
        self.run += 1

    def wrap(self, name: str, fn, *, count: str | None = None,
             new_run: bool = False):
        stack = self._stack

        def traced(*args, **kwargs):
            # An override calling its wrapped base (``super().tick()``) is
            # one call, not two nested spans.
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            if count is not None:
                self.calls[count] += 1
            if new_run:
                self.run += 1
            frame = [next(self._ids), name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                parent = 0
                if stack:
                    stack[-1][2] += end - start
                    parent = stack[-1][0]
                self.spans.append(
                    (frame[0], parent, self.run, name, start, end,
                     end - start - frame[2])
                )

        return traced

    def install(self, patches) -> None:
        """Wrap every layer boundary the per-layer table reads."""
        span = self.wrap
        for engine in (EngineRuntime, DenseEngineRuntime):
            patches.wrap(engine, "tick", partial(span, "engine.tick"))
            patches.wrap(
                engine, "mutation_snapshot", partial(span, "engine.snapshot")
            )
            patches.wrap(
                engine,
                "restore_mutation_snapshot",
                partial(span, "engine.snapshot"),
            )
            patches.wrap(
                engine, "replace_plan", partial(span, "engine.replace_plan")
            )
        for owner, attr, name in (
            (GlobalMetricMonitor, "collect", "engine.metrics.collect"),
            (GlobalMetricMonitor, "observe", "engine.metrics.observe"),
            (CheckpointCoordinator, "checkpoint_all", "engine.checkpoint"),
            (WanMonitor, "refresh", "network.refresh"),
            (WanMonitor, "remeasure", "network.remeasure"),
            (ReconfigurationManager, "adaptation_round", "core.round"),
            (WorkloadEstimator, "estimate", "core.estimate"),
            (Diagnoser, "diagnose", "core.diagnose"),
            (policy.AdaptationPolicy, "decide", "core.decide"),
            (harness, "choose_best_deployment", "planner.deploy"),
            (replanning, "choose_best_deployment", "planner.deploy"),
            (policy, "solve_placement", "planner.solve"),
            (cost, "solve_placement", "planner.solve"),
            (harness.ExperimentRun, "step", "experiments.step"),
            (ChaosInjector, "tick", "chaos.tick"),
            (campaign, "generate_scenario", "fuzz.generate"),
            (InvariantChecker, "on_report", "fuzz.check"),
            (InvariantChecker, "on_step_end", "fuzz.check"),
            (RunRecorder, "record_tick", "sim.record"),
            (RunRecorder, "record_adaptation", "sim.record"),
            (RunRecorder, "record_fault", "sim.record"),
            (campaign, "recorder_digest", "sim.digest"),
        ):
            patches.wrap(owner, attr, partial(span, name))
        patches.wrap(
            harness.ExperimentRun,
            "__init__",
            partial(span, "experiments.build", new_run=True),
        )
        patches.wrap(
            InvariantChecker,
            "write",
            partial(span, "fuzz.check", count="obs.events"),
        )
        patches.wrap(campaign, "_execute", self._wrap_execute)

    def _wrap_execute(self, execute):
        """A campaign scenario runs twice: checked, then replayed without
        the checker; the replay is the ``fuzz.replay`` span."""
        checked = self.wrap("fuzz.run", execute)
        replay = self.wrap("fuzz.replay", execute)

        def dispatch(spec, checker):
            return (replay if checker is None else checked)(spec, checker)

        return dispatch

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The span half of the per-layer table (zeros for idle layers)."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        durations: dict[str, list[float]] = {}
        for _id, _parent, _run, name, start, end, own in self.spans:
            calls[name] += 1
            self_s[name] += own
            durations.setdefault(name, []).append(end - start)
        out = {}
        for metric in SPAN_METRICS:
            name, stat = metric.rsplit(".", 1)
            unit, pct = _STATS[stat]
            if stat == "calls":
                value = calls[name]
            elif stat == "self_s":
                value = self_s[name]
            else:
                q, scale = pct
                values = durations.get(name)
                value = float(np.percentile(values, q)) * scale if values else 0.0
            out[metric] = (value, unit)
        out["obs.events"] = (self.calls["obs.events"], "count")
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, oldest first."""
        with gzip.open(path, "wt") as out:
            for span in sorted(self.spans, key=lambda s: s[4]):
                out.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")
