"""Yahoo! Streaming Benchmark workload (Section 8.3).

The YSB Advertising Campaign query monitors advertisements related to
specific campaigns every 10 seconds.  The paper generates the data
synthetically and distributes it evenly across the 8 edge locations, with
the source rate initialized to 10,000 events/second per source; all Redis /
Kafka I/O is replaced with in-memory operations (the paper does the same to
avoid benchmarking the I/O systems).

Events carry {user_id, page_id, ad_id, ad_type, event_type, event_time,
ip_address}; on the wire we model them at 200 B raw, ~80 B after the
filter/projection chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import ShapedWorkload

#: Paper configuration: 10,000 events/second per source at t = 0.
DEFAULT_RATE_EPS = 10_000.0
#: Raw YSB event size on the wire.
RAW_EVENT_BYTES = 200.0
#: Size after filtering to "view" events and projecting {ad_id, event_time}.
PROJECTED_EVENT_BYTES = 80.0
#: Fraction of events surviving the event_type = "view" filter (the YSB
#: generator emits view/click/purchase uniformly; views are 1 in 3).
VIEW_FILTER_SELECTIVITY = 1.0 / 3.0
#: Number of distinct campaigns in the synthetic campaign table.
CAMPAIGN_COUNT = 100
#: Campaign-metadata update stream rate (tiny; it is a dimension table).
CAMPAIGN_UPDATE_EPS = 50.0


@dataclass(frozen=True)
class YsbSpec:
    """Knobs for the YSB workload."""

    rate_eps: float = DEFAULT_RATE_EPS
    campaign_update_eps: float = CAMPAIGN_UPDATE_EPS


class YsbWorkload(ShapedWorkload):
    """Uniform synthetic ad-event streams plus a campaign-update stream.

    The global factor schedule applies to the ad streams only - campaign
    metadata updates are a control-plane trickle that does not follow user
    traffic (and the Section 8.4 rate steps double the *ad* workload).
    """

    def __init__(
        self,
        ad_sources: list[str],
        campaign_source: str,
        spec: YsbSpec | None = None,
    ) -> None:
        spec = spec or YsbSpec()
        rates = {name: spec.rate_eps for name in ad_sources}
        rates[campaign_source] = spec.campaign_update_eps
        super().__init__(rates, unscaled_sources=frozenset({campaign_source}))
        self._campaign_source = campaign_source

    @property
    def campaign_source(self) -> str:
        return self._campaign_source
