"""Per-tick oracle for the dense backend: every report field and every queue
parcel of 120 ticks, hashed, equals its pinned value.

The recorder digests (``benchmarks.perf.digest``) pin the dense backend
through run-level sums.  This oracle pins it tick by tick: after each tick it
hashes every :class:`~repro.engine.runtime.TickReport` field in field order
(floats as their IEEE bits, mappings as their keys and then their values)
and every parcel of every materialised queue, in ``iter_queues`` order.  A
kernel change that moves one bit of one cell on one tick moves the hash.

The worlds are the all-to-all shuffles of ``benchmarks/perf/scale.py``:

* 64 sites and 32 sites with two aggregation tasks per site (the benchmark
  geometries);
* 16 sites and 64 sites under ``Degrade`` at 5 s and 8 s, whose stage and
  WAN rows drop whole age buckets;
* 12 sites with a third of the links at 700 ms and a third at 1600 ms, so
  WAN passes shift flows by one and two age buckets on delivery.

Run the module to print the hashes (``PYTHONPATH=src python -m
tests.engine.test_dense_tick_oracle``).  The pins are CPython 3.11 values,
gated like the behaviour oracle (``tests/test_behaviour_oracle.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from array import array
from collections.abc import Mapping

import pytest

from benchmarks.perf.scale import build_world
from repro.config import WaspConfig
from repro.engine.dense import DenseEngineRuntime, create_runtime

TICKS = 120

#: name -> (sites, tasks per site, Degrade SLO in s or None, slow links)
WORLDS = {
    "shuffle-64": (64, 1, None, False),
    "shuffle-32-p2": (32, 2, None, False),
    "shuffle-16-degrade-5s": (16, 1, 5.0, False),
    "shuffle-64-degrade-8s": (64, 1, 8.0, False),
    "shuffle-12-slow-links": (12, 1, None, True),
}

PINNED = {
    (3, 11): {
        "shuffle-64": (
            "47b2211e4fbd68279e6367b6d5ca2a7a99d66602bca9344078e2c5bf7497597f"
        ),
        "shuffle-32-p2": (
            "434834811ac67f9c58c24a37c8b17bf2c558ed8691397701c3dc15a268c62c72"
        ),
        "shuffle-16-degrade-5s": (
            "e247fa36013fda860aa06c073c0d9b4fbd09cfae43ff8e23dc3c16ebbfc65b62"
        ),
        "shuffle-64-degrade-8s": (
            "0a2a602f17ff60718b68b58b19e0546cb73d20c0dc3a747060e0d4139bee5cff"
        ),
        "shuffle-12-slow-links": (
            "94ff81e6099a7b5040f8cbfe7998fa790f480267e7d3e6a5706e7a39e7df8db9"
        ),
    },
}


def _value(v) -> bytes:
    """A report field's bytes: floats as their IEEE bits, a mapping as its
    keys in order and then its values' bits."""
    if isinstance(v, float):
        return array("d", [v]).tobytes()
    if isinstance(v, Mapping):
        return repr(list(v)).encode() + array("d", v.values()).tobytes()
    return repr(v).encode()


def _slow_links(topology) -> None:
    """Every third link at 700 ms (one bucket of shift) and every third at
    1600 ms (two buckets), the rest as drawn."""
    names = sorted(topology.site_names)
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if a != b and (i + j) % 3 < 2:
                topology.set_link(
                    a,
                    b,
                    topology.bandwidth_mbps(a, b),
                    (700.0, 1600.0)[(i + j) % 3],
                )


def world_hash(name: str) -> tuple[str, dict]:
    """The hash of ``TICKS`` dense ticks of world ``name``, and counts that
    show what the run exercised."""
    sites, tasks, slo, slow = WORLDS[name]
    topology, plan, workload = build_world(sites, tasks)
    if slow:
        _slow_links(topology)
    runtime = create_runtime(
        topology, plan, workload, WaspConfig(),
        degrade_slo_s=slo, backend="dense",
    )
    assert isinstance(runtime, DenseEngineRuntime)
    h = hashlib.sha256()
    seen = {"dropped": 0.0, "parcels": 0, "net_sent": 0}
    for _ in range(TICKS):
        report = runtime.tick()
        for f in dataclasses.fields(report):
            h.update(f.name.encode() + _value(getattr(report, f.name)))
        # Every queue's key and parcel count, then all parcels' bits.
        heads = []
        bits = array("d")
        for table, key, queue in runtime.iter_queues():
            parcels = queue.parcels()
            heads.append((table, key, len(parcels)))
            for p in parcels:
                bits.append(p.count)
                bits.append(p.gen_time_s)
        h.update(repr(heads).encode())
        h.update(bits.tobytes())
        seen["parcels"] += len(bits) // 2
        seen["dropped"] += report.dropped_source_equiv
        seen["net_sent"] += len(report.net_sent)
    return h.hexdigest(), seen


pinned = pytest.mark.skipif(
    sys.version_info[:2] not in PINNED,
    reason="per-tick hashes are pinned for CPython 3.11",
)


@pinned
@pytest.mark.parametrize("name", list(WORLDS))
def test_dense_ticks_match_pinned_hash(name: str) -> None:
    digest, seen = world_hash(name)
    assert seen["parcels"] > 0 and seen["net_sent"] > 0
    if WORLDS[name][2] is not None:
        assert seen["dropped"] > 0.0  # the drop paths ran
    assert digest == PINNED[sys.version_info[:2]][name]


def test_slow_links_shift_deliveries() -> None:
    """The slow-link world has WAN passes whose flows land one and two
    buckets later, next to flows that land in the bucket they left."""
    topology, plan, workload = build_world(12, 1)
    _slow_links(topology)
    runtime = create_runtime(
        topology, plan, workload, WaspConfig(), backend="dense"
    )
    runtime.tick()
    lat = {
        round(topology.latency_ms(k[2], k[3]))
        for g in runtime._model.groups
        for ps in g.passes
        for k in ps.flow_keys
    }
    assert {700, 1600} < lat and min(lat) < 500


if __name__ == "__main__":
    for world in WORLDS:
        print(f'        "{world}": "{world_hash(world)[0]}",')
