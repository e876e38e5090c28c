"""Runs record the same results under any hash seed.

A traced Figure 11 run writes the same bytes: the Section 8.6 outage
crashes every site at t=540 and recovers them at t=600.  The recovery
order decides the order of the ``restore`` events (and the float sums of
the replay), so it must follow the topology, not the iteration order of
a set of site names.

A Figure 10 Scale run on the testbed of seed 3874 records the same
digest: its scale actions re-partition state over several sites whose
slices tie, and those slices must ship in site order
(``rebalance_transfers``), not in the order of a set of site names.
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


SCALE_DIGEST = """
from repro.experiments.harness import ExperimentRun
from repro.experiments.scenarios import fig10_scenario
from repro.fuzz.campaign import recorder_digest
from repro.sim.rng import RngRegistry

scenario = fig10_scenario()
variant = next(v for v in scenario.variants if v.name == "Scale")
rngs = RngRegistry(3874)
topology = scenario.make_topology(rngs)
query = scenario.make_query(topology, rngs)
run = ExperimentRun(topology, query, variant, rngs=rngs)
run.set_dynamics(scenario.make_dynamics(rngs))
run.run(scenario.duration_s)
print(len(run.manager.history), recorder_digest(run.recorder))
"""


def scale_digest(hash_seed: str) -> str:
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=str(REPO / "src"),
    )
    result = subprocess.run(
        [sys.executable, "-c", SCALE_DIGEST],
        check=True,
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
    )
    return result.stdout


def test_scale_run_digest_is_identical_across_hash_seeds():
    first = scale_digest("1")
    assert first == scale_digest("2")
    assert int(first.split()[0]) > 0  # the run adapted
