"""Network-aware state migration (Section 5) and its baselines (Section 8.7).

Migrating a task between sites requires moving its state partition over the
WAN; the adaptation is only as fast as its *slowest* transfer, because the
stage stays suspended until every moved task can resume.  WASP therefore
chooses the mapping from vacated sites ``(S - S')`` to new sites
``(S' - S)`` by solving

    minmax  |state_s1| / B(s1 -> s2)    over the assignment s1 -> s2

The experiment in Section 8.7.1 compares this against ``random`` (ignore
bandwidth), ``distant`` (adversarial: the slowest mapping) and ``none``
(abandon the state - fast but loses accuracy).  All four strategies are
implemented here behind one interface.

The adaptation-overhead estimate the policy uses (Section 6.2) is the same
quantity: ``t_adapt = t_migrate = max |state| / B``.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import MigrationError
from ..obs.events import EventBus, MigrateEnd, MigrateStart, MigrateTransfer


class MigrationStrategy(enum.Enum):
    """How to map vacated state partitions to destination sites."""

    WASP = "wasp"          # minmax transfer time (network-aware)
    RANDOM = "random"      # bandwidth-agnostic random mapping
    DISTANT = "distant"    # adversarial: maximize the slowest transfer
    NONE = "none"          # abandon state (loses accuracy)


@dataclass(frozen=True)
class Transfer:
    """One state partition's move."""

    stage: str
    from_site: str
    to_site: str
    size_mb: float
    bandwidth_mbps: float

    @property
    def duration_s(self) -> float:
        if self.size_mb <= 0:
            return 0.0
        if self.bandwidth_mbps <= 0:
            return math.inf
        return self.size_mb * 8.0 / self.bandwidth_mbps


def _require_finite(stage: str, transfers: tuple[Transfer, ...]) -> None:
    """Refuse migration plans containing an unfinishable transfer.

    A zero-bandwidth pair (e.g. a collapsed link) would otherwise yield an
    ``inf`` duration that propagates silently into the minmax and the
    policy's overhead estimate; planning an infinite transfer is always a
    bug at the call site, so it surfaces as :class:`MigrationError` and the
    caller can fall back (re-measure, relay, scale out, or abandon state).
    """
    for t in transfers:
        if t.size_mb > 0 and t.bandwidth_mbps <= 0:
            raise MigrationError(
                f"stage {stage!r}: transfer {t.from_site} -> {t.to_site} of "
                f"{t.size_mb:.1f} MB has no bandwidth (link collapsed?)"
            )


@dataclass(frozen=True)
class MigrationPlan:
    """A set of transfers executed in parallel; cost is the slowest one."""

    transfers: tuple[Transfer, ...]
    state_abandoned_mb: float = 0.0

    @property
    def transition_s(self) -> float:
        return max((t.duration_s for t in self.transfers), default=0.0)

    @property
    def total_mb(self) -> float:
        return sum(t.size_mb for t in self.transfers)


class BandwidthLookup:
    """Callable protocol: (src, dst) -> Mbps (monitor-measured)."""

    def __call__(self, src: str, dst: str) -> float:  # pragma: no cover
        raise NotImplementedError


def _assignment_cost(
    sources: list[tuple[str, float]],
    destinations: list[str],
    perm: tuple[int, ...],
    bandwidth: "BandwidthLookup",
) -> float:
    worst = 0.0
    for (src, size_mb), dst_idx in zip(sources, perm):
        dst = destinations[dst_idx]
        bw = bandwidth(src, dst)
        if bw <= 0:
            return math.inf
        worst = max(worst, size_mb * 8.0 / bw)
    return worst


def plan_migration(
    stage: str,
    moved_out: dict[str, float],
    moved_in: list[str],
    bandwidth,
    *,
    strategy: MigrationStrategy = MigrationStrategy.WASP,
    rng: np.random.Generator | None = None,
) -> MigrationPlan:
    """Map vacated partitions to destination sites under a strategy.

    Args:
        stage: Stage whose tasks move (for labelling).
        moved_out: ``{site: state_mb}`` for each vacated partition.
        moved_in: Destination sites (one per incoming task; a site hosting
            k new tasks appears k times).
        bandwidth: ``(src, dst) -> Mbps`` lookup (the WAN monitor's view).
        strategy: Mapping strategy (see :class:`MigrationStrategy`).
        rng: Required for the RANDOM strategy.

    Raises:
        MigrationError: If destination capacity is insufficient or the
            RANDOM strategy is requested without an rng.
    """
    sources = sorted(moved_out.items())
    destinations = sorted(moved_in)
    if strategy is MigrationStrategy.NONE:
        return MigrationPlan(
            transfers=(),
            state_abandoned_mb=sum(moved_out.values()),
        )
    if not sources:
        return MigrationPlan(transfers=())
    if len(destinations) < len(sources):
        raise MigrationError(
            f"stage {stage!r}: {len(sources)} partitions to move but only "
            f"{len(destinations)} destination tasks"
        )

    n = len(sources)
    if strategy is MigrationStrategy.RANDOM:
        if rng is None:
            raise MigrationError("RANDOM migration strategy requires an rng")
        chosen = tuple(rng.permutation(len(destinations))[:n])
    elif strategy in (MigrationStrategy.WASP, MigrationStrategy.DISTANT):
        best_perm: tuple[int, ...] | None = None
        best_cost = math.inf if strategy is MigrationStrategy.WASP else -math.inf
        if n <= 7:
            candidates = itertools.permutations(range(len(destinations)), n)
        else:
            candidates = _greedy_candidates(
                sources, destinations, bandwidth, strategy
            )
        for perm in candidates:
            cost = _assignment_cost(sources, destinations, perm, bandwidth)
            if strategy is MigrationStrategy.WASP and cost < best_cost:
                best_cost, best_perm = cost, perm
            elif strategy is MigrationStrategy.DISTANT and cost > best_cost:
                best_cost, best_perm = cost, perm
        if best_perm is None:
            raise MigrationError(f"stage {stage!r}: no feasible mapping")
        chosen = best_perm
    else:  # pragma: no cover - exhaustive enum
        raise MigrationError(f"unknown strategy {strategy!r}")

    transfers = tuple(
        Transfer(
            stage=stage,
            from_site=src,
            to_site=destinations[dst_idx],
            size_mb=size_mb,
            bandwidth_mbps=bandwidth(src, destinations[dst_idx]),
        )
        for (src, size_mb), dst_idx in zip(sources, chosen)
    )
    _require_finite(stage, transfers)
    return MigrationPlan(transfers=transfers)


def _greedy_candidates(
    sources: list[tuple[str, float]],
    destinations: list[str],
    bandwidth,
    strategy: MigrationStrategy,
) -> list[tuple[int, ...]]:
    """One greedy mapping for large instances: biggest partition first onto
    the fastest (WASP) or slowest (DISTANT) remaining destination."""
    order = sorted(
        range(len(sources)), key=lambda i: -sources[i][1]
    )
    free = set(range(len(destinations)))
    assignment: dict[int, int] = {}
    for i in order:
        src, _ = sources[i]
        ranked = sorted(
            free,
            key=lambda j: bandwidth(src, destinations[j]),
            reverse=(strategy is MigrationStrategy.WASP),
        )
        choice = ranked[0]
        assignment[i] = choice
        free.remove(choice)
    return [tuple(assignment[i] for i in range(len(sources)))]


def rebalance_transfers(
    stage: str,
    before_mb: dict[str, float],
    target_mb: dict[str, float],
    bandwidth,
    *,
    strategy: MigrationStrategy = MigrationStrategy.WASP,
    rng: np.random.Generator | None = None,
) -> MigrationPlan:
    """Transfers that move a stage's state from one layout to another.

    Used by operator scaling (Sections 6.2 and 8.7.2): after a parallelism
    change the balanced layout assigns ``|state| / p'`` per task, so sites
    with excess state ship slices to sites with deficits.  A source may be
    split across several destinations (state partitioning), which is exactly
    how scale-out shrinks the slowest transfer.

    The ``strategy`` orders destination choices: WASP prefers the
    best-bandwidth pairing, DISTANT the worst, RANDOM shuffles, and NONE
    abandons the excess state instead of moving it.
    """
    eps = 1e-9
    excess = {
        s: before_mb.get(s, 0.0) - target_mb.get(s, 0.0)
        for s in set(before_mb) | set(target_mb)
    }
    sources = sorted(
        ((s, v) for s, v in excess.items() if v > eps),
        key=lambda kv: -kv[1],
    )
    deficits = {s: -v for s, v in excess.items() if v < -eps}
    if strategy is MigrationStrategy.NONE:
        return MigrationPlan(
            transfers=(),
            state_abandoned_mb=sum(v for _, v in sources),
        )
    if strategy is MigrationStrategy.RANDOM and rng is None:
        raise MigrationError("RANDOM migration strategy requires an rng")

    transfers: list[Transfer] = []
    for src, remaining in sources:
        while remaining > eps and deficits:
            candidates = sorted(deficits)
            if strategy is MigrationStrategy.RANDOM:
                dst = candidates[int(rng.integers(len(candidates)))]
            elif strategy is MigrationStrategy.DISTANT:
                dst = min(candidates, key=lambda d: (bandwidth(src, d), d))
            else:
                dst = max(candidates, key=lambda d: (bandwidth(src, d), d))
            chunk = min(remaining, deficits[dst])
            transfers.append(
                Transfer(
                    stage=stage,
                    from_site=src,
                    to_site=dst,
                    size_mb=chunk,
                    bandwidth_mbps=bandwidth(src, dst),
                )
            )
            remaining -= chunk
            deficits[dst] -= chunk
            if deficits[dst] <= eps:
                del deficits[dst]
    plan = MigrationPlan(transfers=tuple(transfers))
    _require_finite(stage, plan.transfers)
    return plan


def emit_migration_events(
    obs: EventBus,
    t_s: float,
    stage: str,
    plan: MigrationPlan,
    strategy: MigrationStrategy,
) -> None:
    """Describe a computed migration plan on the event bus.

    Emits a ``migration`` span containing ``migrate.start``, one
    ``migrate.transfer`` per partition move (size, bytes, bandwidth,
    duration) and ``migrate.end`` with the plan's transition cost.  Plans
    with neither transfers nor abandoned state are silent - nothing moved.
    """
    if not plan.transfers and plan.state_abandoned_mb <= 0:
        return
    with obs.span("migration", t_s):
        obs.emit(
            MigrateStart(
                t_s,
                stage=stage,
                strategy=strategy.value,
                transfers=len(plan.transfers),
                total_mb=plan.total_mb,
            )
        )
        for transfer in plan.transfers:
            obs.emit(
                MigrateTransfer(
                    t_s,
                    stage=stage,
                    from_site=transfer.from_site,
                    to_site=transfer.to_site,
                    size_mb=transfer.size_mb,
                    bytes=transfer.size_mb * 1e6,
                    bandwidth_mbps=transfer.bandwidth_mbps,
                    duration_s=transfer.duration_s,
                )
            )
        obs.emit(
            MigrateEnd(
                t_s,
                stage=stage,
                transition_s=plan.transition_s,
                abandoned_mb=plan.state_abandoned_mb,
            )
        )


def estimate_transition_s(
    stage: str,
    moved_out: dict[str, float],
    moved_in: list[str],
    bandwidth,
) -> float:
    """The policy's ``t_adapt`` estimate (Section 6.2): the WASP-strategy
    migration time, infinite when no destinations can host the state or no
    finite-bandwidth mapping exists (the ``t_adapt <= t_max`` check then
    rejects the adaptation instead of planning an infinite transfer)."""
    if not moved_out:
        return 0.0
    if len(moved_in) < len(moved_out):
        return math.inf
    try:
        plan = plan_migration(
            stage, moved_out, moved_in, bandwidth,
            strategy=MigrationStrategy.WASP,
        )
    except MigrationError:
        return math.inf
    return plan.transition_s
