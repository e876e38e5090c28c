"""Parcel-list helpers, the compositional oracle of the fused queue paths.

:class:`~repro.engine.queues.FluidQueue` fuses pop, scale, age and push
into single passes.  The queue tests compare each fused path against the
composition of these list operations, which the engine itself no longer
uses; they were queue methods and module functions of
``repro.engine.queues`` and are kept here unchanged.
"""

from __future__ import annotations

from collections import deque

from repro.engine.queues import FluidQueue, Parcel
from repro.errors import SimulationError


def pop(queue: FluidQueue, count: float) -> list[Parcel]:
    """Dequeue up to ``count`` events FIFO; returns the parcels removed
    (the former ``FluidQueue.pop``)."""
    counts: list[float] = []
    gens: list[float] = []
    queue.pop_scaled_into(count, 1.0, counts, gens)
    return [Parcel(c, g) for c, g in zip(counts, gens)]


def clear(queue: FluidQueue) -> float:
    """Empty the queue; returns the number of events discarded (the former
    ``FluidQueue.clear``)."""
    dropped = queue._count
    if queue._shared:
        # No copy needed: discard the shared storage reference wholesale.
        queue._counts = deque()
        queue._gens = deque()
        queue._shared = False
    else:
        queue._counts.clear()
        queue._gens.clear()
    queue._count = 0.0
    return dropped


def drop_oldest(queue: FluidQueue, count: float) -> float:
    """Discard up to ``count`` events from the head; returns dropped (the
    former ``FluidQueue.drop_oldest``, which no engine path calls).

    Non-allocating: the dropped parcels are never materialized.
    """
    if count < 0:
        raise SimulationError(f"cannot pop negative count {count}")
    before = queue._count
    remaining = min(count, queue._count)
    if remaining > 1e-12 and queue._shared:
        queue._materialize()
    q_counts = queue._counts
    q_gens = queue._gens
    while remaining > 1e-12 and q_counts:
        head_count = q_counts[0]
        if head_count <= remaining + 1e-12:
            remaining -= head_count
            queue._count -= head_count
            q_counts.popleft()
            q_gens.popleft()
        else:
            q_counts[0] = head_count - remaining
            queue._count -= remaining
            remaining = 0.0
    queue._drain_reset()
    return before - queue._count


def push_parcels(queue: FluidQueue, parcels: list[Parcel]) -> None:
    """Push each parcel in order (the former ``FluidQueue.push_parcels``)."""
    for parcel in parcels:
        queue.push(parcel.count, parcel.gen_time_s)


def oldest_gen_time_s(queue: FluidQueue) -> float | None:
    """The head parcel's generation time (the former queue method)."""
    return queue._gens[0] if queue._gens else None


def parcels_total(parcels: list[Parcel]) -> float:
    return sum(p.count for p in parcels)


def parcels_mean_gen_time(parcels: list[Parcel]) -> float:
    """Event-weighted mean generation time; raises on empty input."""
    total = parcels_total(parcels)
    if total <= 0:
        raise SimulationError("no parcels to average")
    return sum(p.count * p.gen_time_s for p in parcels) / total


def scale_parcels(parcels: list[Parcel], factor: float) -> list[Parcel]:
    """Multiply parcel counts by ``factor`` (selectivity, fan-out shares)."""
    if factor < 0:
        raise SimulationError(f"scale factor must be >= 0, got {factor}")
    if factor == 0:
        return []
    return [Parcel(p.count * factor, p.gen_time_s) for p in parcels]


def age_parcels(parcels: list[Parcel], extra_age_s: float) -> list[Parcel]:
    """Make parcels older by ``extra_age_s`` (WAN latency crossing)."""
    if extra_age_s < 0:
        raise SimulationError(f"extra_age_s must be >= 0, got {extra_age_s}")
    return [Parcel(p.count, p.gen_time_s - extra_age_s) for p in parcels]
