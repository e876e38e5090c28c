"""Recorder-output digests: the behaviour-preservation oracle.

The hot-path optimization must be invisible to every experiment: a fixed
seed has to produce bit-identical recorder output before and after.  This
module runs three canonical fixed-seed scenarios (the Fig-8 bottleneck run,
the same dynamics under the Degrade baseline, whose SLO drops the WASP run
never takes, and a chaos-enabled run with mid-adaptation faults) and hashes
every recorded sample, adaptation and fault event at full float precision.
The chaos run is pinned a second time with a trace sink attached: that pin
hashes the JSONL trace bytes, ``attempt_log`` and ``history``, so the bus and
the adaptation log cannot drift from the recorder.  A fingerprint covers the many-flow regime those runs do not reach: raw
engine ticks on the 16-site all-to-all shuffle of
:func:`benchmarks.perf.scale.build_world`.  Two more pin the dense backend
against itself: the same fingerprint on the 64-site shuffle, and an adapting
Figure 8 run (adaptations recompile the dense model).  Two more drive dense
paths those leave dark: the Degrade run on the dense backend (its SLO drops
whole age buckets from stage and WAN rows), and a second shuffle geometry,
32 sites with two aggregation tasks on each.  The Figure 11 WASP
run pins the Section 8.6 whole-testbed outage: its samples and adaptation
lines across the failure, the recovery replay and the round after it.

Print the values, or compare them against the pinned ones (exit 1 on any
mismatch)::

    PYTHONPATH=src python -m benchmarks.perf.digest
    PYTHONPATH=src python -m benchmarks.perf.digest --check

The pinned values are CPython 3.11 results: the floating-point sums the
simulation takes with ``sum()`` are compensated from CPython 3.12 on, so
other interpreters have no pins and ``--check`` refuses to run there.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
from types import SimpleNamespace

from repro.baselines.variants import VariantSpec, degrade, wasp
from repro.chaos.faults import BandwidthCollapse, SiteCrash, Straggler
from repro.chaos.injector import ChaosInjector
from repro.config import WaspConfig
from repro.engine.dense import create_runtime
from repro.experiments.harness import ExperimentRun
from repro.experiments.scenarios import (
    bottleneck_dynamics,
    fig8_scenario,
    fig11_scenario,
)
from repro.fuzz.campaign import recorder_digest
from repro.obs.sinks import JsonlSink
from repro.sim.rng import RngRegistry

from .scale import build_world

DIGEST_SEED = 20201207

#: Shuffle fingerprint world: sites, aggregation tasks per site, ticks.
SHUFFLE_SITES = 16
SHUFFLE_TICKS = 120
#: Sites of the dense-backend shuffle fingerprint (same tick count).
DENSE_SHUFFLE_SITES = 64
#: Sites and aggregation tasks per site of the second dense shuffle pin.
DENSE_P2_SITES = 32
DENSE_P2_TASKS = 2

#: Expected outputs per CPython ``(major, minor)``.
PINNED = {
    (3, 11): {
        "fig8": (
            "3607d3891989c6b516ef1284191cef12b4543f29c1bd0e7713df628f2fb0b7f9"
        ),
        "fig8_degrade": (
            "80800753aaee74969355282bc88d067db2330abcc291a7c8bbfe7274dc25afc2"
        ),
        "chaos": (
            "0ec8c66c6e5371027db19bbefd211f93950c4c87e212405160ccab57c71919ee"
        ),
        "chaos_log": (
            "739bec911809d9cbfa21fcb33075aa21f3783132806b6af7b606037ea3ae449d"
        ),
        "shuffle16": (
            "sink=7918284.75794412 backlog=49681715.242055885 "
            "net=68018501.15750133"
        ),
        "shuffle64_dense": (
            "sink=19002342.57895768 backlog=1132997657.4210417 "
            "net=1075362208.1579561"
        ),
        "fig8_dense": (
            "59b1a8f0e0d9ae0adf23181f40df21f4fb66610a0de9d3491eb13fe39e7f7a8a"
        ),
        "fig11_live": (
            "988a666a1b9738ce345ff1cbf9a8b0c191464d09d3addab976d5ad4afc3af9b3"
        ),
        "fig8_degrade_dense": (
            "21c025dca8f75f817ec810b47ce4305a101b8752f131844722e753cfd0f10d18"
        ),
        "shuffle32_dense_p2": (
            "sink=10462081.113873325 backlog=219937918.8861267 "
            "net=266648448.02245528"
        ),
    },
}


def _build_run(
    seed: int = DIGEST_SEED,
    variant: VariantSpec | None = None,
    query_name: str = "topk-topics",
    config: WaspConfig | None = None,
) -> ExperimentRun:
    scenario = fig8_scenario(query_name)
    rngs = RngRegistry(seed)
    topology = scenario.make_topology(rngs)
    query = scenario.make_query(topology, rngs)
    return ExperimentRun(
        topology, query, variant or wasp(), config=config, rngs=rngs
    )


def fig8_digest(duration_s: float = 450.0, seed: int = DIGEST_SEED) -> str:
    """Digest of a fixed-seed Fig-8 bottleneck run (WASP variant)."""
    run = _build_run(seed)
    run.run(duration_s, bottleneck_dynamics())
    return recorder_digest(run.recorder)


def fig8_dense_digest(duration_s: float = 900.0, seed: int = DIGEST_SEED) -> str:
    """Digest of an adapting Fig-8 run (events-of-interest, WASP) on the
    dense backend; its adaptations recompile the dense model."""
    config = WaspConfig.paper_defaults().with_overrides(engine_backend="dense")
    run = _build_run(seed, query_name="events-of-interest", config=config)
    run.run(duration_s, bottleneck_dynamics())
    return recorder_digest(run.recorder)


def fig8_degrade_digest(
    duration_s: float = 1500.0,
    seed: int = DIGEST_SEED,
    backend: str | None = None,
) -> str:
    """Digest of a full Fig-8 YSB panel under the Degrade baseline.

    Degrade drops events older than its SLO from the stage input queues
    and from the in-flight WAN queues instead of adapting; this run takes
    both drop paths on hundreds of ticks, which the WASP run never does.
    ``backend`` overrides the configured engine backend.
    """
    config = None
    if backend is not None:
        config = WaspConfig.paper_defaults().with_overrides(
            engine_backend=backend
        )
    run = _build_run(seed, degrade(), "ysb-advertising", config)
    run.run(duration_s, bottleneck_dynamics())
    return recorder_digest(run.recorder)


def fig11_live_digest(duration_s: float = 700.0, seed: int = DIGEST_SEED) -> str:
    """Digest of the Figure 11 WASP run through the t=540 s outage.

    Hashes samples and adaptation lines only: how a fault is logged is not
    part of what this pin holds still."""
    scenario = fig11_scenario()
    rngs = RngRegistry(seed)
    topology = scenario.make_topology(rngs)
    query = scenario.make_query(topology, rngs)
    run = ExperimentRun(topology, query, wasp(), rngs=rngs)
    run.run(duration_s, scenario.make_dynamics(rngs))
    recorder = run.recorder
    return recorder_digest(
        SimpleNamespace(
            samples=recorder.samples, adaptations=recorder.adaptations, faults=()
        )
    )


def _chaos_run(seed: int) -> ExperimentRun:
    """The fixed-seed chaos run: site crash + bandwidth collapse +
    straggler on a seeded stream."""
    run = _build_run(seed)
    injector = (
        ChaosInjector(rng=RngRegistry(seed).stream("chaos"))
        .at(120.0, SiteCrash(site="edge-1", duration_s=45.0))
        .at(
            200.0,
            BandwidthCollapse(
                src="dc-oregon", dst="dc-ohio", factor=0.3, duration_s=60.0
            ),
        )
        .at(300.0, Straggler(site="dc-oregon", slowdown=4.0, duration_s=80.0))
    )
    run.attach_chaos(injector)
    return run


def chaos_digest(duration_s: float = 450.0, seed: int = DIGEST_SEED) -> str:
    """Digest of the fixed-seed chaos run's recorder output."""
    run = _chaos_run(seed)
    run.run(duration_s, bottleneck_dynamics())
    return recorder_digest(run.recorder)


def chaos_log_digest(duration_s: float = 450.0, seed: int = DIGEST_SEED) -> str:
    """Digest of the chaos run's adaptation record as every reader sees it:
    the JSONL trace bytes, ``manager.attempt_log`` and ``manager.history``
    (time, kind, stage, attempt, transition, migrated MB)."""
    run = _chaos_run(seed)
    trace = io.StringIO()
    run.obs.attach(JsonlSink(trace))
    run.run(duration_s, bottleneck_dynamics())
    run.obs.close()
    h = hashlib.sha256(trace.getvalue().encode())
    for a in run.manager.attempt_log:
        h.update(
            f"L|{a.t_s!r}|{a.stage}|{a.attempt}|{a.outcome}|{a.detail}\n".encode()
        )
    for r in run.manager.history:
        mb = r.migration.total_mb if r.migration is not None else None
        h.update(
            f"H|{r.t_s!r}|{r.kind.value}|{r.stage}|{r.attempt}"
            f"|{r.transition_s!r}|{mb!r}\n".encode()
        )
    return h.hexdigest()


def shuffle_fingerprint(
    sites: int = SHUFFLE_SITES,
    ticks: int = SHUFFLE_TICKS,
    backend: str = "reference",
    tasks_per_site: int = 1,
) -> str:
    """Raw engine ticks on the all-to-all shuffle world, no controller:
    sums of sink events and of WAN events sent over the run, plus the
    final backlog, at ``repr`` (exact) precision."""
    topology, plan, workload = build_world(sites, tasks_per_site)
    runtime = create_runtime(
        topology, plan, workload, WaspConfig.paper_defaults(), backend=backend
    )
    sink = 0.0
    net = 0.0
    for _ in range(ticks):
        report = runtime.tick()
        sink += report.sink_events
        net += sum(report.net_sent.values())
    return f"sink={sink!r} backlog={runtime.total_backlog()!r} net={net!r}"


#: Every pinned output, by name.
DIGESTS = {
    "fig8": fig8_digest,
    "fig8_degrade": fig8_degrade_digest,
    "chaos": chaos_digest,
    "chaos_log": chaos_log_digest,
    "shuffle16": shuffle_fingerprint,
    "shuffle64_dense": lambda: shuffle_fingerprint(
        DENSE_SHUFFLE_SITES, backend="dense"
    ),
    "fig8_dense": fig8_dense_digest,
    "fig11_live": fig11_live_digest,
    "fig8_degrade_dense": lambda: fig8_degrade_digest(backend="dense"),
    "shuffle32_dense_p2": lambda: shuffle_fingerprint(
        DENSE_P2_SITES, backend="dense", tasks_per_site=DENSE_P2_TASKS
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf.digest",
        description="fixed-seed behaviour digests",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the pinned values; exit 1 on any mismatch",
    )
    args = parser.parse_args(argv)
    expected = PINNED.get(sys.version_info[:2])
    if args.check and expected is None:
        version = ".".join(map(str, sys.version_info[:2]))
        print(f"error: no pinned digests for CPython {version}", file=sys.stderr)
        return 2
    mismatches = 0
    for name, compute in DIGESTS.items():
        value = compute()
        line = f"{name:12s} {value}"
        if args.check and value != expected[name]:
            mismatches += 1
            line += f"\n             MISMATCH, pinned {expected[name]}"
        print(line)
    if mismatches:
        print(f"{mismatches} digest(s) differ from the pinned values")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
