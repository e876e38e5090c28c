"""WAN topology: sites plus pairwise bandwidth/latency matrices.

The topology keeps *base* link capacities (as measured when the testbed was
built) separate from the *current* capacities, which are the base values
multiplied by per-link dynamic factors.  The dynamics driver mutates only the
factors, so restoring a link (e.g. Section 8.4's bandwidth restore at
t=1200) is exact.

Intra-site transfers are modelled as effectively free: the paper's
bottlenecks are inter-site WAN links, and tasks co-located with their
upstream exchange data over the local network.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from ..counters import VersionCounter
from ..errors import TopologyError, UnknownSiteError
from .site import Site, SiteKind

#: Effective bandwidth used for intra-site (local) transfers, in Mbps.
LOCAL_BANDWIDTH_MBPS = 100_000.0
#: Effective latency for intra-site transfers, in milliseconds.
LOCAL_LATENCY_MS = 0.5


@dataclass(frozen=True)
class Link:
    """A directed WAN link with its current capacity and latency."""

    src: str
    dst: str
    bandwidth_mbps: float
    latency_ms: float


class Topology:
    """Mutable WAN topology over a fixed set of sites.

    Bandwidth and latency are directional: ``bandwidth("a", "b")`` is the
    capacity from ``a`` to ``b`` (the paper's ``B^{s2}_{s1}``).
    """

    def __init__(self, sites: Iterable[Site]) -> None:
        self._sites: dict[str, Site] = {}
        for site in sites:
            if site.name in self._sites:
                raise TopologyError(f"duplicate site name: {site.name!r}")
            self._sites[site.name] = site
        #: Bumped by every health or rate change of any of the sites, so
        #: per-site capacity tables key on one counter.
        self._site_states = VersionCounter()
        for site in self._sites.values():
            site._state_counters.append(self._site_states)
        self._base_bandwidth: dict[tuple[str, str], float] = {}
        self._base_latency: dict[tuple[str, str], float] = {}
        #: Per-link factor overrides; links without an entry use
        #: ``_global_factor``.  A global write clears the overrides, which
        #: preserves the historical clobber semantics (a global change
        #: replaces every per-link factor) while staying O(1) per call -
        #: the scripted dynamics apply a global factor on every tick.
        self._factors: dict[tuple[str, str], float] = {}
        self._global_factor = 1.0
        #: Monotonic counter bumped whenever a link's current capacity or
        #: latency may change (a factor write or a link redefinition), so
        #: consumers can cache derived link tables.
        self._factors_version = 0
        #: Monotonic counter bumped whenever a link is (re)defined; tables
        #: compiled from the base capacities and latencies key on it.
        self._links_version = 0
        #: Link keys in sorted order, rebuilt when ``_links_version`` moves.
        self._link_keys: list[tuple[str, str]] = []
        self._link_keys_version = -1
        #: Read-only ``link_bandwidths()`` table and the
        #: (``_factors_version``, ``_links_version``) it was built at.
        self._bandwidths: Mapping[tuple[str, str], float] = MappingProxyType({})
        self._bandwidths_version: tuple[int, int] | None = None

    # ------------------------------------------------------------------ #
    # Sites
    # ------------------------------------------------------------------ #

    def site(self, name: str) -> Site:
        try:
            return self._sites[name]
        except KeyError:
            raise UnknownSiteError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._sites

    def __iter__(self) -> Iterator[Site]:
        return iter(self._sites.values())

    @property
    def site_names(self) -> list[str]:
        return list(self._sites)

    @property
    def site_state_version(self) -> int:
        """Monotonic count of health and rate changes over every site
        (``Site.fail``/``recover``/``set_slowdown``)."""
        return self._site_states.value

    def sites_of_kind(self, kind: SiteKind) -> list[Site]:
        return [s for s in self._sites.values() if s.kind is kind]

    def available_slots(self) -> dict[str, int]:
        """``A[s]`` for every site (0 for failed sites)."""
        return {name: s.available_slots for name, s in self._sites.items()}

    def slot_snapshot(self) -> dict[str, int]:
        """Used-slot counter per site (adaptation-rollback unit).

        Only the *used* counters are captured: failures, revocations and
        slowdowns are environment facts that a rollback must not undo.
        """
        return {name: s.used_slots for name, s in self._sites.items()}

    def restore_slot_snapshot(self, snapshot: dict[str, int]) -> None:
        """Restore the used-slot counters captured by :meth:`slot_snapshot`."""
        for name, used in snapshot.items():
            self.site(name).force_used_slots(used)

    # ------------------------------------------------------------------ #
    # Links
    # ------------------------------------------------------------------ #

    def set_link(
        self, src: str, dst: str, bandwidth_mbps: float, latency_ms: float
    ) -> None:
        """Define (or redefine) the base capacity of a directed link."""
        self._require(src)
        self._require(dst)
        if src == dst:
            raise TopologyError("cannot define a link from a site to itself")
        if bandwidth_mbps <= 0:
            raise TopologyError(
                f"link {src}->{dst}: bandwidth must be > 0, got {bandwidth_mbps}"
            )
        if latency_ms < 0:
            raise TopologyError(
                f"link {src}->{dst}: latency must be >= 0, got {latency_ms}"
            )
        self._base_bandwidth[(src, dst)] = float(bandwidth_mbps)
        self._base_latency[(src, dst)] = float(latency_ms)
        self._links_version += 1
        self._factors_version += 1

    def bandwidth_mbps(self, src: str, dst: str) -> float:
        """Current capacity of the ``src -> dst`` link in Mbps."""
        if src == dst:
            return LOCAL_BANDWIDTH_MBPS
        base = self._base_bandwidth.get((src, dst))
        if base is None:
            self._require(src)
            self._require(dst)
            raise TopologyError(f"no link defined from {src!r} to {dst!r}")
        return base * self._factors.get((src, dst), self._global_factor)

    def latency_ms(self, src: str, dst: str) -> float:
        """Current one-way latency of the ``src -> dst`` link in ms."""
        if src == dst:
            return LOCAL_LATENCY_MS
        latency = self._base_latency.get((src, dst))
        if latency is None:
            self._require(src)
            self._require(dst)
            raise TopologyError(f"no link defined from {src!r} to {dst!r}")
        return latency

    def _sorted_link_keys(self) -> list[tuple[str, str]]:
        """Every defined link key in sorted order, cached until a link is
        (re)defined."""
        if self._link_keys_version != self._links_version:
            self._link_keys = sorted(self._base_bandwidth)
            self._link_keys_version = self._links_version
        return self._link_keys

    def link_bandwidths(self) -> Mapping[tuple[str, str], float]:
        """Current capacity of every directed link, keyed in sorted order.

        Each value is ``base * factor`` exactly as :meth:`bandwidth_mbps`
        computes it, without building a :class:`Link` per entry.  The
        table is read-only and rebuilt only after a factor write or a link
        (re)definition, so repeated reads of an unchanged WAN cost nothing.
        """
        version = (self._factors_version, self._links_version)
        if self._bandwidths_version != version:
            base = self._base_bandwidth
            factor = self._factors.get
            default = self._global_factor
            self._bandwidths = MappingProxyType({
                key: base[key] * factor(key, default)
                for key in self._sorted_link_keys()
            })
            self._bandwidths_version = version
        return self._bandwidths

    def links(self) -> list[Link]:
        """All directed links with their *current* capacities."""
        latency = self._base_latency
        return [
            Link(src, dst, bandwidth, latency[src, dst])
            for (src, dst), bandwidth in self.link_bandwidths().items()
        ]

    # ------------------------------------------------------------------ #
    # Dynamics
    # ------------------------------------------------------------------ #

    def set_bandwidth_factor(self, src: str, dst: str, factor: float) -> None:
        """Scale one directed link's capacity relative to its base value."""
        if factor < 0:
            raise TopologyError(f"bandwidth factor must be >= 0, got {factor}")
        if (src, dst) not in self._base_bandwidth:
            raise TopologyError(f"no link defined from {src!r} to {dst!r}")
        if self._factors.get((src, dst)) != float(factor):
            self._factors[(src, dst)] = float(factor)
            self._factors_version += 1

    def set_global_bandwidth_factor(self, factor: float) -> None:
        """Scale every link (Section 8.4 halves all links at t=900)."""
        if factor < 0:
            raise TopologyError(f"bandwidth factor must be >= 0, got {factor}")
        if self._factors or self._global_factor != float(factor):
            self._factors.clear()
            self._global_factor = float(factor)
            self._factors_version += 1

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def _require(self, name: str) -> None:
        if name not in self._sites:
            raise UnknownSiteError(name)
