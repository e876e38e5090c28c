"""CLI driver: run the perf benchmarks and emit ``BENCH_engine.json``.

Usage (from the repo root)::

    PYTHONPATH=src python -m benchmarks.perf --mode smoke
    PYTHONPATH=src python -m benchmarks.perf --mode full \
        --baseline BENCH_engine.json --out BENCH_engine.json

``--baseline`` points at an earlier emission (or a raw results file); its
numbers are carried into the output's ``baseline`` block and per-benchmark
speedups are computed against them.  Without ``--out`` the JSON goes to
stdout only.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

from .bench import MODES, run_all


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except OSError:  # pragma: no cover - no git in exotic environments
        return "unknown"


def _load_baseline(
    path: Path, blocks: tuple[str, ...] = ("baseline", "current")
) -> dict | None:
    """Extract a ``{bench name: result dict}`` block from a prior emission,
    the first of ``blocks`` it has."""
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"warning: cannot read baseline {path}: {exc}", file=sys.stderr)
        return None
    for key in blocks:
        block = data.get(key)
        if isinstance(block, dict) and "results" in block:
            return block
    if "results" in data:
        return {"results": data["results"], "commit": data.get("commit")}
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="WASP engine performance benchmarks",
    )
    parser.add_argument("--mode", choices=sorted(MODES), default="full")
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the JSON report here (e.g. BENCH_engine.json)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="prior emission to compare against (its numbers are kept)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "regression check: run fresh, compare per-benchmark rates "
            "against the latest emission in the committed "
            "BENCH_engine.json (or --baseline) and exit 1 on any >20%% "
            "rate regression"
        ),
    )
    args = parser.parse_args(argv)

    if args.check:
        baseline_path = args.baseline or Path("BENCH_engine.json")
        # The latest emission times the code as it runs now; the
        # carried-forward baseline block predates some benchmarks.
        baseline = _load_baseline(baseline_path, ("current", "baseline"))
        if baseline is None:
            print(f"error: no usable baseline at {baseline_path}", file=sys.stderr)
            return 2
        results = run_all(args.mode)
        print(f"perf check vs {baseline_path} (mode={args.mode})")
        regressions = []
        for res in results:
            base = baseline["results"].get(res.name)
            if not base or not base.get("rate_per_s"):
                print(f"  {res.name:16s} {res.rate_per_s:12.1f} {res.unit:12s} (no baseline)")
                continue
            delta = res.rate_per_s / base["rate_per_s"] - 1.0
            flag = ""
            if delta < -0.20:
                flag = "  << REGRESSION"
                regressions.append(res.name)
            print(
                f"  {res.name:16s} {res.rate_per_s:12.1f} {res.unit:12s} "
                f"baseline {base['rate_per_s']:12.1f}  {delta:+7.1%}{flag}"
            )
        if regressions:
            print(f"\n{len(regressions)} regression(s): {', '.join(regressions)}")
            return 1
        print("\nno rate regressions beyond 20%")
        return 0

    results = run_all(args.mode)
    current = {
        "commit": _git_commit(),
        "mode": args.mode,
        "python": platform.python_version(),
        "results": {r.name: r.as_dict() for r in results},
    }
    report: dict = {"schema": "wasp-bench/v1", "current": current}

    baseline = _load_baseline(args.baseline) if args.baseline else None
    if baseline is not None:
        report["baseline"] = baseline
        speedups = {}
        for name, res in current["results"].items():
            base = baseline["results"].get(name)
            if base and base.get("rate_per_s"):
                speedups[name] = res["rate_per_s"] / base["rate_per_s"]
        report["speedup_vs_baseline"] = speedups

    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n")
        print(f"\nwrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
