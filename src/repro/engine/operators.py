"""Stream operator specifications.

A logical plan is a DAG of :class:`OperatorSpec` vertices (Section 2.1).
Each spec captures the properties the WASP controller reasons about:

* **selectivity** ``sigma = lambda_O / lambda_P`` (Section 3.2) - the ratio of
  output to processed rate, fixed per operator in the fluid model (the paper
  likewise treats selectivity as a slowly-moving per-operator statistic);
* **cost** - relative CPU work per event, which divides a slot's nominal
  processing rate;
* **statefulness** and state size - what must be checkpointed locally and
  migrated over the WAN when tasks move (Section 5);
* **splittability** - "an operator may not be split without losing its
  semantic" (Section 6.2): such operators are never scaled, only re-planned;
* **output event size** - what converts event rates into link bandwidth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import PlanError


class OperatorKind(enum.Enum):
    """The operator vocabulary used by the Table-3 queries."""

    SOURCE = "source"
    FILTER = "filter"
    MAP = "map"
    PROJECT = "project"
    UNION = "union"
    WINDOW_AGGREGATE = "window_aggregate"
    JOIN = "join"
    REDUCE = "reduce"
    TOP_K = "top_k"
    SINK = "sink"


#: Kinds that keep per-key processing state that must be migrated on
#: re-deployment (Section 5: intermediate aggregation results, offsets, ...).
STATEFUL_KINDS = frozenset(
    {
        OperatorKind.WINDOW_AGGREGATE,
        OperatorKind.JOIN,
        OperatorKind.REDUCE,
        OperatorKind.TOP_K,
    }
)

#: Kinds that can always be chained into their upstream stage (narrow,
#: stateless, record-at-a-time transformations).
CHAINABLE_KINDS = frozenset(
    {OperatorKind.FILTER, OperatorKind.MAP, OperatorKind.PROJECT}
)


@dataclass(frozen=True)
class OperatorSpec:
    """One logical stream operator.

    Attributes:
        name: Unique name within a plan; doubles as the stage name, so plans
            that share a sub-plan (Section 4.3) share operator names for it.
        kind: Operator vocabulary entry.
        selectivity: Output events per processed event.  Aggregations
            compress heavily (e.g. a 30 s per-country top-10 emits a few
            hundred events regardless of input volume, giving a tiny ratio).
        cost: Relative CPU cost; a slot processes ``proc_rate_eps / cost``
            events per second for this operator.
        event_bytes: Size of each *output* event on the wire.
        stateful: Whether tasks keep migratable state.  Defaults from kind.
        state_mb: Total operator state across all tasks, in MB.  The paper
            controls this directly in Sections 8.7.1/8.7.2.
        splittable: False for operators whose semantics break under
            parallelism without a plan change (counters, sinks).
        window_s: Window length for windowed operators (informational).
        keyed_by: Partitioning key description (informational).
        pinned_site: For sources: the site where the stream originates.
    """

    name: str
    kind: OperatorKind
    selectivity: float = 1.0
    cost: float = 1.0
    event_bytes: float = 100.0
    stateful: bool | None = None
    state_mb: float = 0.0
    splittable: bool = True
    window_s: float = 0.0
    keyed_by: str = ""
    pinned_site: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise PlanError("operator name must be non-empty")
        if self.selectivity < 0:
            raise PlanError(
                f"operator {self.name!r}: selectivity must be >= 0, "
                f"got {self.selectivity}"
            )
        if self.cost <= 0:
            raise PlanError(
                f"operator {self.name!r}: cost must be > 0, got {self.cost}"
            )
        if self.event_bytes <= 0:
            raise PlanError(
                f"operator {self.name!r}: event_bytes must be > 0, "
                f"got {self.event_bytes}"
            )
        if self.state_mb < 0:
            raise PlanError(
                f"operator {self.name!r}: state_mb must be >= 0, "
                f"got {self.state_mb}"
            )
        if self.window_s < 0:
            raise PlanError(
                f"operator {self.name!r}: window_s must be >= 0, "
                f"got {self.window_s}"
            )
        if self.stateful is None:
            object.__setattr__(self, "stateful", self.kind in STATEFUL_KINDS)
        if self.kind is OperatorKind.SOURCE and self.pinned_site is None:
            raise PlanError(
                f"source operator {self.name!r} must declare a pinned_site"
            )
        if self.kind is not OperatorKind.SOURCE and self.pinned_site is not None:
            raise PlanError(
                f"operator {self.name!r}: only sources may be pinned to a site"
            )
        if self.stateful and self.kind is OperatorKind.SOURCE:
            raise PlanError(f"source operator {self.name!r} cannot be stateful")

    @property
    def is_source(self) -> bool:
        return self.kind is OperatorKind.SOURCE

    @property
    def is_sink(self) -> bool:
        return self.kind is OperatorKind.SINK

    @property
    def chainable(self) -> bool:
        """Whether this operator may be fused into its upstream stage."""
        return self.kind in CHAINABLE_KINDS and not self.stateful


# --------------------------------------------------------------------------- #
# Convenience constructors, mirroring a fluent stream-API surface.
# --------------------------------------------------------------------------- #


def source(name: str, site: str, *, event_bytes: float = 200.0,
           cost: float = 0.25) -> OperatorSpec:
    """A pinned stream source (e.g. one geo-distributed Kafka-like ingest).

    Ingestion is cheap by default (cost 0.25): a source task reads and
    forwards; the analytical work happens in downstream operators.  The
    experiments never make source ingestion the bottleneck - the paper's
    dynamics target WAN links and downstream operators, and sources are
    pinned to where the data originates, so no adaptation could move them.
    """
    return OperatorSpec(
        name, OperatorKind.SOURCE, event_bytes=event_bytes,
        pinned_site=site, cost=cost,
    )


def filter_(name: str, *, selectivity: float, event_bytes: float = 100.0,
            cost: float = 1.0) -> OperatorSpec:
    return OperatorSpec(
        name, OperatorKind.FILTER, selectivity=selectivity,
        event_bytes=event_bytes, cost=cost,
    )


def map_(name: str, *, event_bytes: float = 100.0,
         cost: float = 1.0) -> OperatorSpec:
    return OperatorSpec(
        name, OperatorKind.MAP, event_bytes=event_bytes, cost=cost
    )


def project(name: str, *, event_bytes: float) -> OperatorSpec:
    return OperatorSpec(
        name, OperatorKind.PROJECT, event_bytes=event_bytes, cost=0.5
    )


def union(name: str, *, event_bytes: float = 100.0) -> OperatorSpec:
    return OperatorSpec(
        name, OperatorKind.UNION, event_bytes=event_bytes, cost=0.25
    )


def window_aggregate(
    name: str,
    *,
    window_s: float,
    selectivity: float,
    state_mb: float,
    keyed_by: str = "",
    event_bytes: float = 100.0,
    cost: float = 2.0,
) -> OperatorSpec:
    return OperatorSpec(
        name, OperatorKind.WINDOW_AGGREGATE, selectivity=selectivity,
        cost=cost, event_bytes=event_bytes, state_mb=state_mb,
        window_s=window_s, keyed_by=keyed_by,
    )


def join(name: str, *, selectivity: float, state_mb: float,
         event_bytes: float = 150.0, cost: float = 2.0,
         window_s: float = 0.0) -> OperatorSpec:
    return OperatorSpec(
        name, OperatorKind.JOIN, selectivity=selectivity, cost=cost,
        event_bytes=event_bytes, state_mb=state_mb, window_s=window_s,
    )


def top_k(name: str, *, k: int, window_s: float, state_mb: float,
          event_bytes: float = 120.0, cost: float = 2.0) -> OperatorSpec:
    selectivity = max(1e-6, min(1.0, k / 1000.0))
    return OperatorSpec(
        name, OperatorKind.TOP_K, selectivity=selectivity, cost=cost,
        event_bytes=event_bytes, state_mb=state_mb, window_s=window_s,
    )


def sink(name: str) -> OperatorSpec:
    return OperatorSpec(
        name, OperatorKind.SINK, selectivity=1.0, cost=0.25,
        event_bytes=100.0, splittable=False,
    )
