"""The flat-table WanMonitor against the per-link-object monitor it replaced.

``_OracleWanMonitor`` below is the previous implementation kept verbatim:
one frozen :class:`LinkMeasurement` per link, rebuilt on every refresh from
``Topology.links()``, with one scalar noise draw per link.  It reads the
topology through :class:`_ReferenceLinks`, which lists links the way
``Topology.links()`` used to (re-sorting the keys and going through
``bandwidth_mbps``/``latency_ms`` per link), so neither the cached key list
nor ``link_bandwidths()`` sits under the oracle.

Both monitors are driven through the same random operation sequences on
the same topology, each with its own generator seeded alike; after every
operation their answers must be equal by ``==``, their bandwidth matrices
must list the same keys in the same order, and their generators must be at
the same stream position.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np
import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.network.monitor import LinkMeasurement, WanMonitor
from repro.network.site import Site, SiteKind
from repro.network.topology import Link, Topology


class _ReferenceLinks:
    """A topology whose ``links()`` is the previous implementation."""

    def __init__(self, topology: Topology) -> None:
        self._topology = topology

    def links(self) -> list[Link]:
        t = self._topology
        return [
            Link(src, dst, t.bandwidth_mbps(src, dst), t.latency_ms(src, dst))
            for (src, dst) in sorted(t._base_bandwidth)
        ]

    def bandwidth_mbps(self, src: str, dst: str) -> float:
        return self._topology.bandwidth_mbps(src, dst)

    def latency_ms(self, src: str, dst: str) -> float:
        return self._topology.latency_ms(src, dst)


class _OracleWanMonitor:
    """The previous ``WanMonitor``, verbatim apart from its name and some
    docstrings."""

    def __init__(
        self,
        topology: Topology,
        rng: np.random.Generator,
        *,
        relative_error: float = 0.0,
    ) -> None:
        if relative_error < 0 or relative_error >= 1:
            raise ConfigurationError(
                f"relative_error must be in [0, 1), got {relative_error}"
            )
        self._topology = topology
        self._rng = rng
        self._relative_error = float(relative_error)
        self._measurements: dict[tuple[str, str], LinkMeasurement] = {}
        self._last_refresh_s = float("-inf")

    @property
    def last_refresh_s(self) -> float:
        return self._last_refresh_s

    def refresh(self, now_s: float) -> None:
        """Re-measure every defined link (one monitoring round)."""
        for link in self._topology.links():
            noise = 1.0
            if self._relative_error > 0:
                noise = self._rng.uniform(
                    1.0 - self._relative_error, 1.0 + self._relative_error
                )
            self._measurements[(link.src, link.dst)] = LinkMeasurement(
                src=link.src,
                dst=link.dst,
                bandwidth_mbps=link.bandwidth_mbps * noise,
                latency_ms=link.latency_ms,
                measured_at_s=now_s,
            )
        self._last_refresh_s = now_s

    def remeasure(self, src: str, dst: str, now_s: float) -> float:
        if src == dst:
            return self._topology.bandwidth_mbps(src, dst)
        noise = 1.0
        if self._relative_error > 0:
            noise = self._rng.uniform(
                1.0 - self._relative_error, 1.0 + self._relative_error
            )
        sample = LinkMeasurement(
            src=src,
            dst=dst,
            bandwidth_mbps=self._topology.bandwidth_mbps(src, dst) * noise,
            latency_ms=self._topology.latency_ms(src, dst),
            measured_at_s=now_s,
        )
        self._measurements[(src, dst)] = sample
        return sample.bandwidth_mbps

    def bandwidth_mbps(self, src: str, dst: str) -> float:
        if src == dst:
            return self._topology.bandwidth_mbps(src, dst)
        sample = self._measurements.get((src, dst))
        if sample is None:
            return self._topology.bandwidth_mbps(src, dst)
        return sample.bandwidth_mbps

    def latency_ms(self, src: str, dst: str) -> float:
        if src == dst:
            return self._topology.latency_ms(src, dst)
        sample = self._measurements.get((src, dst))
        if sample is None:
            return self._topology.latency_ms(src, dst)
        return sample.latency_ms

    def measurement(self, src: str, dst: str) -> LinkMeasurement | None:
        return self._measurements.get((src, dst))

    def bandwidth_matrix(self) -> dict[tuple[str, str], float]:
        return {
            key: sample.bandwidth_mbps
            for key, sample in self._measurements.items()
        }


def _answer(call):
    """``call()``'s value, or the type of the error it raised."""
    try:
        return call()
    except TopologyError as exc:
        return type(exc)


@dataclass
class _Pair:
    """The same world seen by the oracle and by the monitor under test."""

    topology: Topology
    names: list[str]
    oracle: _OracleWanMonitor
    monitor: WanMonitor
    oracle_rng: np.random.Generator
    rng: np.random.Generator

    def assert_same(self) -> None:
        old, new = self.oracle, self.monitor
        assert new.last_refresh_s == old.last_refresh_s
        old_matrix, new_matrix = old.bandwidth_matrix(), new.bandwidth_matrix()
        assert list(new_matrix) == list(old_matrix)
        assert new_matrix == old_matrix
        for src in self.names:
            for dst in self.names:
                for method in ("bandwidth_mbps", "latency_ms", "measurement"):
                    expected = _answer(lambda: getattr(old, method)(src, dst))
                    got = _answer(lambda: getattr(new, method)(src, dst))
                    assert got == expected, (method, src, dst)
        state = self.oracle_rng.bit_generator.state
        assert self.rng.bit_generator.state == state


def _build(seed: int, relative_error: float) -> tuple[_Pair, random.Random]:
    draw = random.Random(seed)
    names = [f"s{i:02d}" for i in range(draw.randint(3, 16))]
    topology = Topology(
        Site(
            name,
            draw.choice([SiteKind.EDGE, SiteKind.DATA_CENTER]),
            draw.randint(1, 8),
        )
        for name in names
    )
    # Leave some pairs undefined so that later ``set_link`` calls add links.
    for src in names:
        for dst in names:
            if src != dst and draw.random() < 0.7:
                bandwidth = draw.uniform(1.0, 250.0)
                latency = draw.uniform(1.0, 200.0)
                topology.set_link(src, dst, bandwidth, latency)
    oracle_rng = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    pair = _Pair(
        topology=topology,
        names=names,
        oracle=_OracleWanMonitor(
            _ReferenceLinks(topology),
            oracle_rng,
            relative_error=relative_error,
        ),
        monitor=WanMonitor(topology, rng, relative_error=relative_error),
        oracle_rng=oracle_rng,
        rng=rng,
    )
    return pair, draw


def _step(pair: _Pair, draw: random.Random, now_s: float) -> None:
    """Apply one random operation to the shared topology or both monitors."""
    topology = pair.topology
    src, dst = draw.choice(pair.names), draw.choice(pair.names)
    op = draw.choice([
        "refresh", "refresh", "remeasure", "remeasure", "factor", "global",
        "set_link",
    ])
    if op == "refresh":
        pair.oracle.refresh(now_s)
        pair.monitor.refresh(now_s)
    elif op == "remeasure":
        # Includes intra-site pairs and undefined links (which raise after
        # the noise draw); both monitors must agree on all of them.
        expected = _answer(lambda: pair.oracle.remeasure(src, dst, now_s))
        got = _answer(lambda: pair.monitor.remeasure(src, dst, now_s))
        assert got == expected
    elif op == "factor":
        a, b = draw.choice(list(topology._base_bandwidth))
        factor = draw.choice([0.0, 0.25, 0.5, draw.random(), 1.5])
        topology.set_bandwidth_factor(a, b, factor)
    elif op == "global":
        factor = draw.choice([0.5, 1.0, draw.random()])
        topology.set_global_bandwidth_factor(factor)
    elif src != dst:
        # Redefines an existing link or adds a new one.
        topology.set_link(
            src, dst, draw.uniform(1.0, 250.0), draw.uniform(1.0, 200.0)
        )


class TestAgainstOracle:
    @pytest.mark.parametrize("relative_error", [0.0, 0.05, 0.3])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_operation_sequences(self, seed, relative_error):
        pair, draw = _build(seed, relative_error)
        pair.assert_same()
        now = 0.0
        for _ in range(40):
            now += draw.choice([0.0, 1.0, 40.0])
            _step(pair, draw, now)
            pair.assert_same()
        assert pair.rng.uniform() == pair.oracle_rng.uniform()

    def test_remeasure_before_first_refresh_keeps_matrix_order(self):
        """A link gauged before the first round keeps its first position."""
        pair, _ = _build(3, 0.05)
        src, dst = sorted(pair.topology._base_bandwidth)[-1]
        for monitor in (pair.oracle, pair.monitor):
            monitor.remeasure(src, dst, 5.0)
            monitor.refresh(40.0)
        pair.assert_same()
        assert next(iter(pair.monitor.bandwidth_matrix())) == (src, dst)


class TestNoiseDraws:
    @pytest.mark.parametrize("seed", range(20))
    def test_vector_draw_equals_scalar_draws(self, seed):
        """One ``size=n`` uniform draw is the same values, and leaves the
        stream at the same position, as ``n`` scalar draws."""
        scalar_rng = np.random.default_rng(seed)
        vector_rng = np.random.default_rng(seed)
        n = 1 + seed * 13
        scalar = [scalar_rng.uniform(0.7, 1.3) for _ in range(n)]
        assert vector_rng.uniform(0.7, 1.3, size=n).tolist() == scalar
        assert vector_rng.uniform() == scalar_rng.uniform()

    def test_noisy_measurements_are_python_floats(self, small_topology):
        monitor = WanMonitor(
            small_topology, np.random.default_rng(1), relative_error=0.2
        )
        monitor.refresh(0.0)
        matrix = monitor.bandwidth_matrix()
        assert all(type(v) is float for v in matrix.values())
        assert type(monitor.remeasure("edge-x", "dc-1", 1.0)) is float


class TestMeasuredAt:
    def test_remeasure_stamps_only_its_link_until_the_next_refresh(
        self, small_topology
    ):
        monitor = WanMonitor(small_topology, np.random.default_rng(0))
        monitor.refresh(40.0)
        monitor.remeasure("edge-x", "dc-1", 55.0)
        assert monitor.measurement("edge-x", "dc-1").measured_at_s == 55.0
        assert monitor.measurement("dc-1", "dc-2").measured_at_s == 40.0
        monitor.refresh(80.0)
        assert monitor.measurement("edge-x", "dc-1").measured_at_s == 80.0

    def test_redefined_latency_shows_after_the_next_refresh(
        self, small_topology
    ):
        monitor = WanMonitor(small_topology, np.random.default_rng(0))
        monitor.refresh(0.0)
        small_topology.set_link("edge-x", "dc-1", 10.0, 90.0)
        assert monitor.latency_ms("edge-x", "dc-1") == 50.0
        monitor.refresh(40.0)
        assert monitor.latency_ms("edge-x", "dc-1") == 90.0
