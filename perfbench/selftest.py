"""Self-test of the benchmark: a short run of every workload in both modes.

Run from the repository root::

    python3 perfbench/selftest.py

Each workload runs once with ``--trace 0`` and once with ``--trace 1`` at
its default seed and a one-second budget.  Every run must exit 0, pass
every output check, and print as its last line a result carrying exactly
the metrics ``BENCHMARK.json`` names for that mode, each with its unit.
Finally the benchmark must refuse to run, printing no result, from a copy
of itself that lacks the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 180


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S
    )
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = last_json(proc.stdout)
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"{where}: last line is not a result"]
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: checks failed\n{proc.stdout[-2000:]}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        problems.append(
            f"{where}: missing {sorted(set(wanted) - set(got))}, "
            f"unexpected {sorted(set(got) - set(wanted))}"
        )
    for name, unit in wanted.items():
        metric = got.get(name)
        if metric is None:
            continue
        if metric.get("unit") != unit:
            problems.append(f"{where}: {name} unit {metric.get('unit')!r} != {unit!r}")
        if not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{where}: {name} value is not a number")
        elif not trace and metric["value"] <= 0:
            problems.append(f"{where}: end-to-end {name} is not positive")
    return problems


def check_bare_copy(spec: dict) -> list[str]:
    """Without the program's sources the benchmark must fail cleanly."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out"))
        workload = spec["workloads"][0]["name"]
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        return ["a copy without the program's sources still ran"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_copy(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
