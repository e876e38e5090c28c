"""Recorder-output digests: the behaviour-preservation oracle.

The hot-path optimization must be invisible to every experiment: a fixed
seed has to produce bit-identical recorder output before and after.  This
module runs two canonical fixed-seed scenarios (the Fig-8 bottleneck run
and a chaos-enabled run with mid-adaptation faults) and hashes every
recorded sample, adaptation and fault event at full float precision.  A
third fingerprint covers the many-flow regime those runs do not reach: raw
engine ticks on the 16-site all-to-all shuffle of
:func:`benchmarks.perf.scale.build_world`.

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
import sys

from repro.baselines.variants import wasp
from repro.chaos.faults import BandwidthCollapse, SiteCrash, Straggler
from repro.chaos.injector import ChaosInjector
from repro.config import WaspConfig
from repro.engine.runtime import EngineRuntime
from repro.experiments.harness import ExperimentRun
from repro.experiments.scenarios import bottleneck_dynamics, fig8_scenario
from repro.sim.recorder import RunRecorder
from repro.sim.rng import RngRegistry

from .scale import build_world

DIGEST_SEED = 20201207

#: Shuffle fingerprint world: sites, aggregation tasks per site, ticks.
SHUFFLE_SITES = 16
SHUFFLE_TICKS = 120

#: Expected outputs per CPython ``(major, minor)``.
PINNED = {
    (3, 11): {
        "fig8": (
            "618749f594a3e641dc65233797bc87e6a5114c0f2b3f5f50dcdd3c1a56efcb5d"
        ),
        "chaos": (
            "f8fb00876182f2e8aeb0264b705035b22d02ec73393fe639dbdfc6d8a7735655"
        ),
        "shuffle16": (
            "sink=7918284.75794412 backlog=49681715.242055885 "
            "net=68018501.15750133"
        ),
    },
}


def recorder_digest(recorder: RunRecorder) -> str:
    """SHA-256 over every sample/adaptation/fault at full float precision.

    ``repr`` of a float is exact (round-trips the IEEE-754 value), so two
    digests match iff the recorded runs are bit-identical.
    """
    h = hashlib.sha256()
    for s in recorder.samples:
        h.update(
            (
                f"{s.t_s!r}|{s.delay_s!r}|{s.processed!r}|{s.offered!r}"
                f"|{s.dropped!r}|{s.parallelism}|{s.extra_slots}\n"
            ).encode()
        )
    for a in recorder.adaptations:
        h.update(f"A|{a.t_s!r}|{a.action}|{a.detail}\n".encode())
    for f in recorder.faults:
        h.update(f"F|{f.t_s!r}|{f.kind}|{f.detail}\n".encode())
    return h.hexdigest()


def _build_run(seed: int = DIGEST_SEED) -> ExperimentRun:
    scenario = fig8_scenario("topk-topics")
    rngs = RngRegistry(seed)
    topology = scenario.make_topology(rngs)
    query = scenario.make_query(topology, rngs)
    return ExperimentRun(topology, query, wasp(), rngs=rngs)


def fig8_digest(duration_s: float = 450.0, seed: int = DIGEST_SEED) -> str:
    """Digest of a fixed-seed Fig-8 bottleneck run (WASP variant)."""
    run = _build_run(seed)
    run.run(duration_s, bottleneck_dynamics())
    return recorder_digest(run.recorder)


def chaos_digest(duration_s: float = 450.0, seed: int = DIGEST_SEED) -> str:
    """Digest of a fixed-seed chaos-enabled run (site crash + bandwidth
    collapse + straggler + probabilistic flaps on a seeded stream)."""
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
    run.run(duration_s, bottleneck_dynamics())
    return recorder_digest(run.recorder)


def shuffle_fingerprint(
    sites: int = SHUFFLE_SITES, ticks: int = SHUFFLE_TICKS
) -> str:
    """Raw reference-engine ticks on the all-to-all shuffle world, no
    controller: sums of sink events and of WAN events sent over the run,
    plus the final backlog, at ``repr`` (exact) precision."""
    topology, plan, workload = build_world(sites, 1)
    runtime = EngineRuntime(
        topology, plan, workload, WaspConfig.paper_defaults()
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
    "chaos": chaos_digest,
    "shuffle16": shuffle_fingerprint,
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
        line = f"{name:9s} {value}"
        if args.check and value != expected[name]:
            mismatches += 1
            line += f"\n          MISMATCH, pinned {expected[name]}"
        print(line)
    if mismatches:
        print(f"{mismatches} digest(s) differ from the pinned values")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
