"""Attached-sink overhead report (informational, not a gate).

Components emit on the event bus unconditionally.  With no sink attached
``emit`` returns before building a record; what remains, constructing the
events, costs about 65 us per adaptation round (Intel Xeon, CPython 3.11,
~5% of a Figure 8/10/11 round; DESIGN.md section 8).  This script measures
the cost of an attached sink: it runs the same fixed-seed Fig-8 scenario
three times (no sink, ring buffer, JSONL to a temp file) and reports
ticks/s side by side.

Run::

    PYTHONPATH=src python -m benchmarks.perf.trace_overhead [--duration 200]
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

from repro.experiments.scenarios import bottleneck_dynamics, launch
from repro.obs.sinks import JsonlSink, RingBufferSink

from .digest import DIGEST_SEED


def _timed_run(duration_s: float, make_sink) -> tuple[float, int, int]:
    """Returns (wall_s, ticks, records) for one fixed-seed run."""
    run = launch("topk-topics", seed=DIGEST_SEED)
    sink = make_sink(run) if make_sink is not None else None
    t0 = time.perf_counter()
    run.run(duration_s, bottleneck_dynamics())
    wall = time.perf_counter() - t0
    ticks = len(run.recorder.samples)
    run.obs.close()
    records = 0
    if isinstance(sink, RingBufferSink):
        records = len(sink)
    elif isinstance(sink, JsonlSink):
        with sink.path.open(encoding="utf-8") as trace:
            records = sum(1 for _ in trace)
    return wall, ticks, records


def measure(duration_s: float = 200.0, tmp_dir: str | None = None) -> dict:
    """Overhead of each sink vs the unobserved baseline, as a report dict."""
    with tempfile.TemporaryDirectory(dir=tmp_dir) as tmp:
        trace_path = Path(tmp) / "overhead.jsonl"
        variants = [
            ("no-sink", None),
            ("ring-buffer", lambda run: run.obs.attach(RingBufferSink())),
            ("jsonl", lambda run: run.obs.attach(JsonlSink(trace_path))),
        ]
        rows = []
        baseline_rate = None
        for name, make_sink in variants:
            wall, ticks, records = _timed_run(duration_s, make_sink)
            rate = ticks / wall if wall > 0 else float("inf")
            if baseline_rate is None:
                baseline_rate = rate
            rows.append(
                {
                    "sink": name,
                    "wall_s": wall,
                    "ticks": ticks,
                    "ticks_per_s": rate,
                    "records": records,
                    "overhead_pct": 100.0 * (baseline_rate / rate - 1.0),
                }
            )
    return {"duration_s": duration_s, "seed": DIGEST_SEED, "runs": rows}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=200.0)
    parser.add_argument(
        "--out", default=None, metavar="PATH", help="also write a JSON report"
    )
    args = parser.parse_args(argv)

    report = measure(args.duration)
    print(
        f"attached-sink overhead (fig8 scenario, seed {report['seed']}, "
        f"{report['duration_s']:.0f}s simulated)"
    )
    print(
        "sink".ljust(14)
        + "wall s".rjust(9)
        + "ticks/s".rjust(12)
        + "records".rjust(10)
        + "overhead".rjust(10)
    )
    for row in report["runs"]:
        print(
            row["sink"].ljust(14)
            + f"{row['wall_s']:9.3f}"
            + f"{row['ticks_per_s']:12.0f}"
            + f"{row['records']:10d}"
            + f"{row['overhead_pct']:+9.1f}%"
        )
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
