"""Randomized equivalence: the optimized FluidQueue vs reference semantics.

The hot-path rewrite (column storage, in-place fused ops, copy-on-write
sharing, reused pop buffers) must be *behaviour-preserving*: every
operation has to leave bit-identical counts, parcel lists and return
values compared to the original list-building implementation.
``ReferenceQueue`` below is that original implementation, kept verbatim; a
seeded random op stream drives both side by side and compares exhaustively
after every step.  The fused moves between queues (``drain_into``, and
the WAN move the engine tick runs in place, checked through its former
queue method ``transfer_into`` in ``column_routing.py``) and the engine's
pop-and-select kernel (``pop_scaled_into``) are checked against their
compositions the same way.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.queues import FluidQueue, Parcel
from repro.errors import SimulationError

from .column_routing import push_scaled, transfer_into
from .parcels import (
    age_parcels,
    clear,
    drop_oldest,
    parcels_total,
    pop,
    push_parcels,
    scale_parcels,
)

SEEDS = [7, 42, 20201207]


class ReferenceQueue:
    """The pre-optimization FluidQueue semantics, list-based and eager."""

    _MERGE_EPS = 1e-6

    def __init__(self) -> None:
        self._parcels: list[Parcel] = []
        self._count = 0.0

    @property
    def count(self) -> float:
        return self._count

    def __bool__(self) -> bool:
        return bool(self._count > 1e-12)

    def push(self, count: float, gen_time_s: float) -> None:
        count = float(count)
        if count == 0:
            return
        parcels = self._parcels
        if (
            parcels
            and abs(parcels[-1].gen_time_s - gen_time_s) < self._MERGE_EPS
        ):
            parcels[-1].count += count
        else:
            parcels.append(Parcel(count, gen_time_s))
        self._count += count

    def push_parcels(self, parcels: list[Parcel]) -> None:
        for parcel in parcels:
            self.push(parcel.count, parcel.gen_time_s)

    def pop(self, count: float) -> list[Parcel]:
        parcels = self._parcels
        remaining = min(count, self._count)
        popped: list[Parcel] = []
        while remaining > 1e-12 and parcels:
            head = parcels[0]
            head_count = head.count
            if head_count <= remaining + 1e-12:
                popped.append(head)
                remaining -= head_count
                self._count -= head_count
                parcels.pop(0)
            else:
                popped.append(Parcel(remaining, head.gen_time_s))
                head.count = head_count - remaining
                self._count -= remaining
                remaining = 0.0
        if self._count < 1e-12:
            self._count = 0.0
            parcels.clear()
        return popped

    def drop_oldest(self, count: float) -> float:
        before = self._count
        self.pop(count)
        return before - self._count

    def drop_older_than(self, cutoff_gen_time_s: float) -> float:
        parcels = self._parcels
        dropped = 0.0
        while parcels and parcels[0].gen_time_s < cutoff_gen_time_s:
            head_count = parcels[0].count
            dropped += head_count
            self._count -= head_count
            parcels.pop(0)
        if self._count < 1e-12:
            self._count = 0.0
            parcels.clear()
        return dropped

    def clear(self) -> float:
        dropped = self._count
        self._parcels.clear()
        self._count = 0.0
        return dropped


def pairs(queue) -> list[tuple[float, float]]:
    parcels = (
        queue.parcels() if isinstance(queue, FluidQueue) else queue._parcels
    )
    return [(p.count, p.gen_time_s) for p in parcels]


def columns(parcels: list[Parcel]) -> tuple[list[float], list[float]]:
    return [p.count for p in parcels], [p.gen_time_s for p in parcels]


def assert_equal_state(fluid: FluidQueue, ref) -> None:
    assert fluid.count == ref.count  # bit-exact, no tolerance
    assert pairs(fluid) == pairs(ref)


def random_parcels(rng: random.Random, now: float) -> list[Parcel]:
    return [
        Parcel(rng.uniform(0.0, 50.0), now - rng.uniform(0.0, 30.0))
        for _ in range(rng.randrange(0, 6))
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_randomized_op_stream_matches_reference(seed: int) -> None:
    rng = random.Random(seed)
    fluid, ref = FluidQueue(), ReferenceQueue()
    now = 0.0
    cow_clones: list[FluidQueue] = []
    for step in range(3000):
        now += rng.uniform(0.0, 2.0)
        op = rng.randrange(8)
        if op in (0, 1, 2):  # bias toward pushes so queues stay non-trivial
            count = rng.choice([0.0, rng.uniform(0.0, 200.0)])
            gen = now - rng.uniform(0.0, 5.0)
            fluid.push(count, gen)
            ref.push(count, gen)
        elif op == 3:
            amount = rng.uniform(0.0, 150.0)
            got_ref = ref.pop(amount)
            if rng.random() < 0.5:
                got = pop(fluid, amount)
            else:
                counts: list[float] = []
                gens: list[float] = []
                total, emitted = fluid.pop_scaled_into(
                    amount, 1.0, counts, gens
                )
                assert total == parcels_total(got_ref)
                assert emitted == total
                got = [Parcel(c, g) for c, g in zip(counts, gens)]
            assert [(p.count, p.gen_time_s) for p in got] == [
                (p.count, p.gen_time_s) for p in got_ref
            ]
        elif op == 4:
            amount = rng.uniform(0.0, 150.0)
            assert drop_oldest(fluid, amount) == ref.drop_oldest(amount)
        elif op == 5:
            cutoff = now - rng.uniform(0.0, 10.0)
            assert fluid.drop_older_than(cutoff) == ref.drop_older_than(
                cutoff
            )
        elif op == 6:
            assert clear(fluid) == ref.clear()
        else:
            # Copy-on-write clones must never disturb the original, no
            # matter how the clone is mutated afterwards.
            clone = fluid.clone_cow()
            if rng.random() < 0.5:
                clone.push(rng.uniform(0.0, 30.0), now)
                pop(clone, rng.uniform(0.0, 60.0))
            cow_clones.append(clone)
        assert_equal_state(fluid, ref)
    assert len(cow_clones) > 10  # the stream actually exercised COW


@pytest.mark.parametrize("seed", SEEDS)
def test_fused_push_variants_match_compositions(seed: int) -> None:
    rng = random.Random(seed)
    now = 0.0
    for _ in range(300):
        now += rng.uniform(0.0, 3.0)
        parcels = random_parcels(rng, now)

        factor = rng.choice([0.0, rng.uniform(0.0, 2.0)])
        fused, composed = FluidQueue(), ReferenceQueue()
        seeded = random_parcels(rng, now)
        push_parcels(fused, seeded)
        push_parcels(composed, seeded)
        scaled = scale_parcels(parcels, factor)
        total = push_scaled(fused, *columns(parcels), factor)
        push_parcels(composed, scaled)
        assert total == parcels_total(scaled)
        assert_equal_state(fused, composed)


def test_clone_cow_restores_exactly_after_mutation() -> None:
    queue = FluidQueue()
    for i in range(20):
        queue.push(10.0 + i, float(i))
    snapshot = queue.clone_cow()
    before = pairs(queue)
    pop(queue, 55.0)
    queue.push(3.0, 99.0)
    drop_oldest(queue, 7.0)
    restored = snapshot.clone_cow()
    assert pairs(restored) == before
    assert restored.count == sum(c for c, _ in before)
    # The snapshot itself is still intact for a second restore.
    again = snapshot.clone_cow()
    assert pairs(again) == before


def _random_queue(rng: random.Random, now: float, merge_heavy: bool):
    """A (FluidQueue, ReferenceQueue) pair holding the same random parcels.

    ``merge_heavy`` spaces generation times right around ``_MERGE_EPS`` so
    pushes land on both sides of the merge boundary.
    """
    fluid, ref = FluidQueue(), ReferenceQueue()
    gen = now - rng.uniform(0.0, 30.0)
    for _ in range(rng.randrange(0, 12)):
        count = rng.uniform(1e-13, 80.0) if rng.random() < 0.9 else 1e-13
        fluid.push(count, gen)
        ref.push(count, gen)
        if merge_heavy:
            step = rng.choice([0.5, 0.999999, 1.0, 1.5])
            gen += FluidQueue._MERGE_EPS * step
        else:
            gen += rng.uniform(0.0, 2.0)
    return fluid, ref


def _copy_reference(ref: ReferenceQueue) -> ReferenceQueue:
    copy = ReferenceQueue()
    copy._parcels = [Parcel(p.count, p.gen_time_s) for p in ref._parcels]
    copy._count = ref._count
    return copy


def _running_total(parcels: list[Parcel]) -> float:
    total = 0.0
    for p in parcels:
        total += p.count
    return total


@pytest.mark.parametrize("seed", SEEDS)
def test_transfer_into_matches_pop_then_aged_push(seed: int) -> None:
    rng = random.Random(seed)
    now = 0.0
    for step in range(400):
        now += rng.uniform(0.0, 3.0)
        merge_heavy = step % 2 == 1
        src, src_ref = _random_queue(rng, now, merge_heavy)
        if rng.random() < 0.3:
            # The destination shares the source's copy-on-write storage.
            dst, dst_ref = src.clone_cow(), _copy_reference(src_ref)
        else:
            dst, dst_ref = _random_queue(rng, now, merge_heavy)
        src_clone = src.clone_cow() if rng.random() < 0.5 else None
        dst_clone = dst.clone_cow() if rng.random() < 0.5 else None
        src_before, dst_before = pairs(src), pairs(dst)
        # Partial head pops, exact whole-queue moves, over-asks, nothing.
        budget = rng.choice(
            [rng.uniform(0.0, src.count + 1.0), src.count, 0.0, 1e-13]
        )
        age = rng.choice([0.0, rng.uniform(0.0, 4.0), FluidQueue._MERGE_EPS])

        moved = transfer_into(src, dst, budget, age)
        popped = src_ref.pop(budget)
        push_parcels(dst_ref, age_parcels(popped, age))
        assert moved == _running_total(popped)
        assert_equal_state(src, src_ref)
        assert_equal_state(dst, dst_ref)
        # Copy-on-write clones of either side never see the move.
        if src_clone is not None:
            assert pairs(src_clone) == src_before
        if dst_clone is not None:
            assert pairs(dst_clone) == dst_before


@pytest.mark.parametrize("seed", SEEDS)
def test_drain_into_matches_push_parcels_of_pop(seed: int) -> None:
    rng = random.Random(seed)
    now = 0.0
    for step in range(400):
        now += rng.uniform(0.0, 3.0)
        merge_heavy = step % 2 == 1
        src, src_ref = _random_queue(rng, now, merge_heavy)
        dst, dst_ref = _random_queue(rng, now, merge_heavy)
        src_clone = src.clone_cow() if rng.random() < 0.5 else None
        dst_clone = dst.clone_cow() if rng.random() < 0.5 else None
        src_before, dst_before = pairs(src), pairs(dst)

        src.drain_into(dst)
        push_parcels(dst_ref, src_ref.pop(src_ref.count))
        assert_equal_state(src, src_ref)
        assert_equal_state(dst, dst_ref)
        # Copy-on-write clones of either side never see the move.
        if src_clone is not None:
            assert pairs(src_clone) == src_before
        if dst_clone is not None:
            assert pairs(dst_clone) == dst_before


@pytest.mark.parametrize("seed", SEEDS)
def test_pop_scaled_into_matches_scaled_reference_pop(seed: int) -> None:
    rng = random.Random(seed)
    now = 0.0
    for step in range(400):
        now += rng.uniform(0.0, 3.0)
        fluid, ref = _random_queue(rng, now, merge_heavy=step % 2 == 1)
        if rng.random() < 0.3:
            # Pop from a queue whose storage a snapshot shares.
            shared = fluid.clone_cow()
            fluid, ref = shared.clone_cow(), _copy_reference(ref)
        else:
            shared = None
        clone = fluid.clone_cow() if rng.random() < 0.5 else None
        before = pairs(fluid)
        queued = fluid.count
        # Split heads, whole-queue pops, over-asks, nothing, and pops that
        # leave (or take) a residue below the 1e-12 emptiness threshold.
        amount = rng.choice([
            rng.uniform(0.0, queued + 1.0),
            queued,
            queued + 5.0,
            0.0,
            max(0.0, queued - rng.uniform(0.0, 1e-12)),
            rng.uniform(0.0, 1e-12),
        ])
        factor = rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)])
        # Caller columns may already hold values; the kernel appends.
        counts: list[float] = [7.0] if rng.random() < 0.2 else []
        gens: list[float] = [3.0] if counts else []
        prefix = len(counts)

        popped, emitted = fluid.pop_scaled_into(amount, factor, counts, gens)
        got_ref = ref.pop(amount)
        expected = scale_parcels(got_ref, factor)
        assert counts[prefix:] == [p.count for p in expected]
        assert gens[prefix:] == [p.gen_time_s for p in expected]
        assert popped == parcels_total(got_ref)
        assert emitted == _running_total(expected)
        assert_equal_state(fluid, ref)
        if clone is not None:
            assert pairs(clone) == before
        if shared is not None:
            assert pairs(shared) == before


def test_pop_scaled_into_rejects_negative_arguments() -> None:
    queue = FluidQueue()
    queue.push(5.0, 1.0)
    with pytest.raises(SimulationError):
        queue.pop_scaled_into(-1.0, 1.0, [], [])
    with pytest.raises(SimulationError):
        queue.pop_scaled_into(1.0, -0.5, [], [])
    assert pairs(queue) == [(5.0, 1.0)]
