"""Parcel-list helpers, the compositional oracle of the fused queue paths.

:class:`~repro.engine.queues.FluidQueue` fuses pop, scale, age and push
into single passes.  The queue tests compare each fused path against the
composition of these list operations, which the engine itself no longer
uses; they were queue methods and module functions of
``repro.engine.queues`` and are kept here unchanged.
"""

from __future__ import annotations

from repro.engine.queues import FluidQueue, Parcel
from repro.errors import SimulationError


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
