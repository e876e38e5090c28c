"""Fluid FIFO queues with exact age accounting.

The engine models event streams as fluid: per tick, fractional "parcels" of
events move between queues.  Each parcel remembers the (average) generation
time of the events it aggregates, so end-to-end delay is simply
``now - gen_time`` when a parcel reaches a sink - no per-event objects are
needed, yet FIFO ordering and ages are preserved exactly at parcel
granularity.

Crossing a WAN link with latency ``l`` makes a parcel *older* by ``l``
(``gen_time -= l``), which folds propagation delay into the same accounting.

Storage is two parallel float deques (counts and generation times) rather
than one object per parcel.  Floats are never tracked by the cyclic garbage
collector, so a runtime holding hundreds of thousands of queued parcels
gives the collector a handful of deques to look at instead of one object
per parcel, and each parcel costs two floats instead of an object plus two
floats.  :class:`Parcel` remains the inspection and interchange type
(:meth:`FluidQueue.parcels`, :meth:`FluidQueue.pop`,
:meth:`FluidQueue.push_parcels`); the engine's tick path never builds one.

Because the engine executes these operations for every (stage, site) and
every WAN flow on every tick, the queue exposes *fused, in-place* variants
of its hot paths, all working on parallel ``(counts, gens)`` column lists:

* :meth:`FluidQueue.pop_into` dequeues into caller-reused column buffers;
* :meth:`FluidQueue.push_scaled` merges the ``scale_parcels`` +
  ``push_parcels`` pair into a single pass with no intermediate list;
* :meth:`FluidQueue.transfer_into` moves up to a budget of events into
  another queue, aged by a link latency, in one pass (``pop`` +
  ``age_parcels`` + ``push_parcels``); :meth:`FluidQueue.drain_into`
  moves everything (``push_parcels(pop(count))``);
* :meth:`FluidQueue.drop_oldest` discards head events without
  materializing the dropped parcels.

All fused variants perform bit-for-bit the same floating-point operations
in the same order as their compositional equivalents, so fixed seeds
produce identical simulations either way.

Snapshots are copy-on-write: :meth:`FluidQueue.clone_cow` shares the
storage between the original and the clone, and the first mutation on
either side makes a shallow private copy of the two deques.  An adaptation
attempt that touches three queues pays for three copies, not for every
queue in the runtime.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from ..errors import SimulationError


@dataclass(slots=True)
class Parcel:
    """A fluid bucket of ``count`` events with a common generation time."""

    count: float
    gen_time_s: float


class FluidQueue:
    """FIFO queue of parcels supporting fractional pop/drop.

    Parcels pushed with (nearly) the same generation time are merged, so the
    queue length stays bounded by the number of distinct ticks events have
    been waiting.
    """

    _MERGE_EPS = 1e-6

    __slots__ = ("_counts", "_gens", "_count", "_shared")

    def __init__(self) -> None:
        #: Parallel columns, oldest parcel first.
        self._counts: deque[float] = deque()
        self._gens: deque[float] = deque()
        self._count = 0.0
        #: True while the two deques may be shared with a copy-on-write
        #: clone; mutators materialize first.
        self._shared = False

    @property
    def count(self) -> float:
        """Total events queued."""
        return self._count

    def __bool__(self) -> bool:
        return self._count > 1e-12

    def __len__(self) -> int:
        return len(self._counts)

    def _materialize(self) -> None:
        """Detach from any copy-on-write sharers before mutating."""
        self._counts = deque(self._counts)
        self._gens = deque(self._gens)
        self._shared = False

    def _drain_reset(self) -> None:
        """Normalize a (numerically) drained queue to the canonical empty
        state, exactly like the pre-COW implementation did on every pop."""
        if self._count < 1e-12:
            self._count = 0.0
            if self._shared:
                if self._counts:
                    self._counts = deque()
                    self._gens = deque()
                    self._shared = False
            else:
                self._counts.clear()
                self._gens.clear()

    def push(self, count: float, gen_time_s: float) -> None:
        """Enqueue ``count`` events generated (on average) at ``gen_time_s``."""
        count = float(count)
        if count < 0:
            raise SimulationError(f"cannot push negative count {count}")
        if count == 0:
            return
        if self._shared:
            self._materialize()
        gens = self._gens
        if gens and abs(gens[-1] - gen_time_s) < self._MERGE_EPS:
            self._counts[-1] += count
        else:
            self._counts.append(count)
            gens.append(gen_time_s)
        self._count += count

    def push_parcels(self, parcels: list[Parcel]) -> None:
        for parcel in parcels:
            self.push(parcel.count, parcel.gen_time_s)

    def push_scaled(
        self, counts: Sequence[float], gens: Sequence[float], factor: float
    ) -> float:
        """Push the parcels ``(counts, gens)`` scaled by ``factor``; returns
        the scaled total.

        Fuses ``push_parcels(scale_parcels(parcels, factor))`` (plus the
        ``parcels_total`` of the scaled list) into one pass with no
        intermediate list.
        """
        if factor < 0:
            raise SimulationError(
                f"scale factor must be >= 0, got {factor}"
            )
        if factor == 0 or not counts:
            return 0.0
        if self._shared:
            self._materialize()
        q_counts = self._counts
        q_gens = self._gens
        eps = self._MERGE_EPS
        queued = self._count
        total = 0.0
        for c, g in zip(counts, gens):
            scaled = c * factor
            total += scaled
            if scaled == 0.0:
                continue
            if q_gens and -eps < q_gens[-1] - g < eps:
                q_counts[-1] += scaled
            else:
                q_counts.append(scaled)
                q_gens.append(g)
            queued += scaled
        self._count = queued
        return total

    def clone_cow(self) -> "FluidQueue":
        """Copy-on-write clone: O(1) now, pays the copy on first mutation.

        Both the clone and the original keep working exactly like
        independent queues; the storage is shared only until either side
        mutates.  Used by the transactional adaptation executor so a
        snapshot of the whole runtime only copies the queues an adaptation
        attempt actually touches.
        """
        copy = FluidQueue.__new__(FluidQueue)
        copy._counts = self._counts
        copy._gens = self._gens
        copy._count = self._count
        copy._shared = True
        self._shared = True
        return copy

    def pop(self, count: float) -> list[Parcel]:
        """Dequeue up to ``count`` events FIFO; returns the parcels removed."""
        counts: list[float] = []
        gens: list[float] = []
        self.pop_into(count, counts, gens)
        return [Parcel(c, g) for c, g in zip(counts, gens)]

    def pop_into(
        self, count: float, counts: list[float], gens: list[float]
    ) -> float:
        """Dequeue up to ``count`` events FIFO, appending into the column
        buffers ``counts`` and ``gens``.

        Returns the total events dequeued.  The buffers are caller-owned
        (typically reused across calls) and receive the removed parcels in
        FIFO order.
        """
        if count < 0:
            raise SimulationError(f"cannot pop negative count {count}")
        remaining = min(count, self._count)
        if remaining > 1e-12 and self._shared:
            self._materialize()
        q_counts = self._counts
        q_gens = self._gens
        queued = self._count
        popped_total = 0.0
        while remaining > 1e-12 and q_counts:
            head_count = q_counts[0]
            if head_count <= remaining + 1e-12:
                counts.append(head_count)
                gens.append(q_gens.popleft())
                remaining -= head_count
                queued -= head_count
                popped_total += head_count
                q_counts.popleft()
            else:
                counts.append(remaining)
                gens.append(q_gens[0])
                q_counts[0] = head_count - remaining
                queued -= remaining
                popped_total += remaining
                remaining = 0.0
        self._count = queued
        if queued < 1e-12:
            self._drain_reset()
        return popped_total

    def transfer_into(
        self, dst: "FluidQueue", max_events: float, extra_age_s: float
    ) -> float:
        """Move up to ``max_events`` events FIFO into ``dst``, aged by
        ``extra_age_s``; returns the events moved.

        Fuses ``dst.push_parcels(age_parcels(self.pop(max_events),
        extra_age_s))`` into one pass with no intermediate lists.  ``dst``
        must be a different queue.
        """
        if max_events < 0:
            raise SimulationError(f"cannot pop negative count {max_events}")
        if extra_age_s < 0:
            raise SimulationError(
                f"extra_age_s must be >= 0, got {extra_age_s}"
            )
        queued = self._count
        remaining = queued if queued < max_events else max_events
        moved = 0.0
        if remaining > 1e-12 and self._counts:
            if self._shared:
                self._materialize()
            if dst._shared:
                dst._materialize()
            q_counts = self._counts
            q_gens = self._gens
            d_counts = dst._counts
            d_gens = dst._gens
            eps = self._MERGE_EPS
            arrived = dst._count
            while remaining > 1e-12 and q_counts:
                head_count = q_counts[0]
                if head_count <= remaining + 1e-12:
                    c = head_count
                    gen = q_gens.popleft() - extra_age_s
                    remaining -= head_count
                    queued -= head_count
                    moved += head_count
                    q_counts.popleft()
                else:
                    c = remaining
                    gen = q_gens[0] - extra_age_s
                    q_counts[0] = head_count - remaining
                    queued -= remaining
                    moved += remaining
                    remaining = 0.0
                if d_gens and -eps < d_gens[-1] - gen < eps:
                    d_counts[-1] += c
                else:
                    d_counts.append(c)
                    d_gens.append(gen)
                arrived += c
            self._count = queued
            dst._count = arrived
        if queued < 1e-12:
            self._drain_reset()
        return moved

    def drain_into(self, dst: "FluidQueue") -> None:
        """Move every queued event into ``dst`` (FIFO, ages unchanged).

        Bit-identical to ``dst.push_parcels(self.pop(self.count))``.
        """
        self.transfer_into(dst, self._count, 0.0)

    def drop_oldest(self, count: float) -> float:
        """Discard up to ``count`` events from the head; returns dropped.

        Non-allocating: the dropped parcels are never materialized.
        """
        if count < 0:
            raise SimulationError(f"cannot pop negative count {count}")
        before = self._count
        remaining = min(count, self._count)
        if remaining > 1e-12 and self._shared:
            self._materialize()
        q_counts = self._counts
        q_gens = self._gens
        while remaining > 1e-12 and q_counts:
            head_count = q_counts[0]
            if head_count <= remaining + 1e-12:
                remaining -= head_count
                self._count -= head_count
                q_counts.popleft()
                q_gens.popleft()
            else:
                q_counts[0] = head_count - remaining
                self._count -= remaining
                remaining = 0.0
        self._drain_reset()
        return before - self._count

    def drop_older_than(self, cutoff_gen_time_s: float) -> float:
        """Discard every event generated before ``cutoff_gen_time_s``.

        This is the Degrade baseline's move: events whose age already exceeds
        the SLO are dropped rather than processed late (Section 8.4).
        FIFO order means stale parcels are all at the head.
        """
        q_gens = self._gens
        if not q_gens or q_gens[0] >= cutoff_gen_time_s:
            return 0.0
        if self._shared:
            self._materialize()
            q_gens = self._gens
        q_counts = self._counts
        dropped = 0.0
        while q_gens and q_gens[0] < cutoff_gen_time_s:
            head_count = q_counts.popleft()
            q_gens.popleft()
            dropped += head_count
            self._count -= head_count
        if self._count < 1e-12:
            self._count = 0.0
            q_counts.clear()
            q_gens.clear()
        return dropped

    def clear(self) -> float:
        """Empty the queue; returns the number of events discarded."""
        dropped = self._count
        if self._shared:
            # No copy needed: discard the shared storage reference wholesale.
            self._counts = deque()
            self._gens = deque()
            self._shared = False
        else:
            self._counts.clear()
            self._gens.clear()
        self._count = 0.0
        return dropped

    def oldest_gen_time_s(self) -> float | None:
        return self._gens[0] if self._gens else None

    def parcels(self) -> list[Parcel]:
        """Read-only copy of the queued parcels, oldest first.

        For inspection (invariant checkers, tests); never aliases the
        internal storage, so callers cannot perturb COW sharing.
        """
        return [Parcel(c, g) for c, g in zip(self._counts, self._gens)]

    def mean_age_s(self, now_s: float) -> float:
        """Average age of queued events (0 for an empty queue)."""
        if self._count <= 0:
            return 0.0
        total_age = sum(
            c * (now_s - g) for c, g in zip(self._counts, self._gens)
        )
        return total_age / self._count


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
