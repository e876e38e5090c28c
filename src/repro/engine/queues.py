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
floats.  :class:`Parcel` remains the inspection type
(:meth:`FluidQueue.parcels`); the engine's tick path never builds one.

The queue exposes *fused, in-place* variants of the moves its callers
make:

* :meth:`FluidQueue.pop_routed` dequeues up to a budget, scales each
  parcel by a factor and pushes it straight into each of a list of
  target queues, each scaled by its fraction (``pop`` + ``scale_parcels``
  + one ``push_parcels(scale_parcels(...))`` per target, no intermediate
  list).  The engine tick calls it for the site rows with several
  targets or none; it runs the single-target row pop and the WAN
  transfer over the queues' columns itself
  (:meth:`~repro.engine.runtime.EngineRuntime.tick`);
* :meth:`FluidQueue.drain_into` moves everything into another queue
  (``push_parcels(pop(count))``), the mutation API's move;
* :meth:`FluidQueue.pop_scaled_into` dequeues into ``(counts, gens)``
  column lists with the counts scaled (selectivity) and returns both the
  popped and the scaled totals, for the callers that read the parcels
  (the sinks' delay sum).

All fused variants perform bit-for-bit the same floating-point operations
in the same order as their compositional equivalents (built from the
parcel-list helpers in ``tests/engine/parcels.py``, which the queue tests
compare them against), so fixed seeds produce identical simulations
either way.

Snapshots are copy-on-write: :meth:`FluidQueue.clone_cow` shares the
storage between the original and the clone, and the first mutation on
either side makes a shallow private copy of the two deques.  An adaptation
attempt that touches three queues pays for three copies, not for every
queue in the runtime.
"""

from __future__ import annotations

import math
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

    def pop_scaled_into(
        self,
        count: float,
        factor: float,
        counts: list[float],
        gens: list[float],
    ) -> tuple[float, float]:
        """Dequeue up to ``count`` events FIFO and append the removed
        parcels, counts scaled by ``factor``, to ``counts`` and ``gens``.

        Returns ``(popped, emitted)``: the unscaled events dequeued and the
        sum of the scaled counts, each summed in FIFO order.  Fuses
        ``scale_parcels(pop(count), factor)`` and both totals into one pass;
        like ``scale_parcels``, a zero ``factor`` appends nothing.  With
        ``factor`` 1.0 the columns are the popped parcels exactly.
        """
        if count < 0:
            raise SimulationError(f"cannot pop negative count {count}")
        if factor < 0:
            raise SimulationError(
                f"scale factor must be >= 0, got {factor}"
            )
        if factor == 0:
            # Pop as usual, into columns nobody reads.
            counts = []
            gens = []
        queued = self._count
        remaining = queued if queued < count else count
        if remaining > 1e-12 and self._shared:
            self._materialize()
        q_counts = self._counts
        q_gens = self._gens
        popped = 0.0
        emitted = 0.0
        while remaining > 1e-12 and q_counts:
            c = q_counts.popleft()
            if c <= remaining + 1e-12:
                gens.append(q_gens.popleft())
                remaining -= c
            else:
                # Split head: put the rest back, take what is left to pop.
                q_counts.appendleft(c - remaining)
                c = remaining
                gens.append(q_gens[0])
                remaining = 0.0
            queued -= c
            popped += c
            c *= factor
            emitted += c
            counts.append(c)
        if queued < 1e-12:
            self._count = 0.0
            if q_counts:
                self._drain_reset()
        else:
            self._count = queued
        return popped, emitted

    def would_pop(self, count: float) -> bool:
        """Whether popping up to ``count`` events dequeues any: the test
        that opens the loop of :meth:`pop_scaled_into`,
        :meth:`pop_routed` and the engine tick's in-place row pop
        (queued counts are always positive)."""
        queued = self._count
        return (queued if queued < count else count) > 1e-12 and bool(
            self._counts
        )

    def pop_routed(
        self,
        count: float,
        factor: float,
        targets: Sequence[tuple["FluidQueue", float]],
    ) -> tuple[float, float]:
        """Dequeue up to ``count`` events FIFO, scale each removed parcel by
        ``factor`` and push it into every ``(queue, fraction)`` target,
        scaled once more by the target's ``fraction``.

        Returns ``(popped, emitted)`` exactly like :meth:`pop_scaled_into`.
        Fuses ``pop_scaled_into`` followed by one column push
        (``push_parcels(scale_parcels(parcels, fraction))``) per target
        into one pass with no column lists: each queue sees the same
        floating-point operations in the same order.  The targets must be
        distinct queues other than this one; a zero fraction pushes
        nothing.
        """
        if count < 0:
            raise SimulationError(f"cannot pop negative count {count}")
        if factor < 0:
            raise SimulationError(
                f"scale factor must be >= 0, got {factor}"
            )
        queued = self._count
        remaining = queued if queued < count else count
        popped = 0.0
        emitted = 0.0
        if remaining > 1e-12 and self._counts:
            if self._shared:
                self._materialize()
            for target, fraction in targets:
                if fraction < 0:
                    raise SimulationError(
                        f"scale factor must be >= 0, got {fraction}"
                    )
                if fraction and target._shared:
                    target._materialize()
            q_counts = self._counts
            q_gens = self._gens
            eps = self._MERGE_EPS
            while remaining > 1e-12 and q_counts:
                c = q_counts.popleft()
                if c <= remaining + 1e-12:
                    g = q_gens.popleft()
                    remaining -= c
                else:
                    q_counts.appendleft(c - remaining)
                    c = remaining
                    g = q_gens[0]
                    remaining = 0.0
                queued -= c
                popped += c
                c *= factor
                emitted += c
                for target, fraction in targets:
                    scaled = c * fraction
                    if scaled == 0.0:
                        continue
                    t_gens = target._gens
                    if t_gens and -eps < t_gens[-1] - g < eps:
                        target._counts[-1] += scaled
                    else:
                        target._counts.append(scaled)
                        t_gens.append(g)
                    target._count += scaled
        if queued < 1e-12:
            self._count = 0.0
            if self._counts:
                self._drain_reset()
        else:
            self._count = queued
        return popped, emitted

    def drain_into(self, dst: "FluidQueue") -> None:
        """Move every queued event into ``dst`` (FIFO, ages unchanged).

        Bit-identical to ``dst.push_parcels(self.pop(self.count))``: a
        single-target :meth:`pop_routed` with factor and fraction 1.0,
        which multiply exactly.  ``dst`` must be a different queue.
        """
        self.pop_routed(self._count, 1.0, [(dst, 1.0)])

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

    def count_and_min(self) -> tuple[float, float]:
        """Total events queued and the smallest parcel count (``inf`` for
        an empty queue), in one call.

        Read-only: scans the count column in place without building
        :class:`Parcel` objects, so a checker can screen every parcel for
        negativity at the cost of one C-level pass per queue.  The minimum
        follows :func:`min`: a NaN count is skipped unless it heads the
        queue, in which case the minimum is NaN.
        """
        counts = self._counts
        return self._count, (min(counts) if counts else math.inf)

    def parcels(self) -> list[Parcel]:
        """Read-only copy of the queued parcels, oldest first.

        For inspection (invariant checkers, tests); never aliases the
        internal storage, so callers cannot perturb COW sharing.
        """
        return [Parcel(c, g) for c, g in zip(self._counts, self._gens)]

