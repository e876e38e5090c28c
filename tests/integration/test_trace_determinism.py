"""A traced Figure 11 run writes the same bytes under any hash seed.

The Section 8.6 outage crashes every site at t=540 and recovers them at
t=600.  The recovery order decides the order of the ``restore`` events
(and the float sums of the replay), so it must follow the topology, not
the iteration order of a set of site names.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def live_trace(tmp_path: Path, hash_seed: str) -> bytes:
    out = tmp_path / f"live-{hash_seed}.jsonl"
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=str(REPO / "src"),
    )
    subprocess.run(
        [
            sys.executable, "-m", "repro", "run",
            "--dynamics", "live", "--duration", "660",
            "--trace-out", str(out),
        ],
        check=True,
        cwd=REPO,
        env=env,
        stdout=subprocess.DEVNULL,
    )
    return out.read_bytes()


def test_live_trace_is_byte_identical_across_hash_seeds(tmp_path):
    first = live_trace(tmp_path, "1")
    assert first == live_trace(tmp_path, "2")
    faults = [
        (record["t_s"], record["phase"])
        for record in map(json.loads, first.decode().splitlines())
        if record["kind"] == "chaos.fault"
    ]
    assert faults == [(540.0, "apply"), (600.0, "revert")]
