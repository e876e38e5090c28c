"""Hypothesis property tests for FluidQueue vs a naive reference model.

Complements ``test_queue_equivalence.py`` (seeded random op streams against
the verbatim pre-optimization implementation) with *property-based*
coverage: Hypothesis searches the op space for mass-conservation breaks,
fused-vs-compositional divergence and copy-on-write leaks, and shrinks any
counterexample to a minimal op sequence.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.queues import (
    FluidQueue,
    Parcel,
    age_parcels,
    parcels_total,
    scale_parcels,
)

counts = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
gen_times = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)
parcel_lists = st.lists(st.tuples(counts, gen_times), max_size=12)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), counts, gen_times),
        st.tuples(st.just("pop"), counts),
        st.tuples(st.just("drop_oldest"), counts),
        st.tuples(st.just("drop_older_than"), gen_times),
        st.tuples(
            st.just("push_scaled"),
            parcel_lists,
            st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
        ),
        st.tuples(
            st.just("transfer_into"),
            parcel_lists,
            counts,
            st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
        ),
        st.tuples(st.just("clear")),
        st.tuples(st.just("clone_cow")),
    ),
    max_size=25,
)


def fill(pairs) -> FluidQueue:
    queue = FluidQueue()
    for count, gen in pairs:
        queue.push(count, gen)
    return queue


def as_pairs(queue: FluidQueue) -> list[tuple[float, float]]:
    return [(p.count, p.gen_time_s) for p in queue.parcels()]


def as_columns(pairs) -> tuple[list[float], list[float]]:
    return [c for c, _ in pairs], [g for _, g in pairs]


class TestMassConservation:
    """Events are never created or destroyed by any op sequence.

    The reference model is a pair of running totals maintained naively
    from the op stream; the queue's internal ``_count`` bookkeeping (and
    its parcel list) must track it within float tolerance.
    """

    @given(ops)
    @settings(max_examples=150)
    def test_count_matches_naive_ledger(self, sequence):
        queue = FluidQueue()
        pushed = 0.0
        removed = 0.0
        clones = []
        for op in sequence:
            kind = op[0]
            if kind == "push":
                queue.push(op[1], op[2])
                pushed += op[1]
            elif kind == "pop":
                removed += sum(p.count for p in queue.pop(op[1]))
            elif kind == "drop_oldest":
                removed += queue.drop_oldest(op[1])
            elif kind == "drop_older_than":
                removed += queue.drop_older_than(op[1])
            elif kind == "push_scaled":
                pushed += queue.push_scaled(*as_columns(op[1]), op[2])
            elif kind == "transfer_into":
                pushed += fill(op[1]).transfer_into(queue, op[2], op[3])
            elif kind == "clear":
                removed += queue.clear()
            elif kind == "clone_cow":
                clones.append(queue.clone_cow())
            tol = 1e-6 + 1e-9 * max(pushed, removed)
            assert queue.count == pytest.approx(
                pushed - removed, abs=tol
            ), f"ledger diverged after {kind}"
            assert queue.count >= 0.0
            assert parcels_total(queue.parcels()) == pytest.approx(
                queue.count, abs=tol
            )
        del clones  # kept alive so COW sharing stays active throughout

    @given(parcel_lists, counts)
    @settings(max_examples=100)
    def test_pop_returns_exactly_what_leaves(self, pairs, amount):
        queue = fill(pairs)
        before = queue.count
        counts: list[float] = []
        gens: list[float] = []
        popped = queue.pop_into(amount, counts, gens)
        assert len(counts) == len(gens)
        assert popped == pytest.approx(
            sum(counts), abs=1e-9 + 1e-12 * before
        )
        assert popped <= amount + 1e-9
        assert queue.count + popped == pytest.approx(
            before, abs=1e-9 + 1e-12 * before
        )


class TestFusedEqualsCompositional:
    """The fused hot-path ops are bit-identical to their compositions."""

    @given(
        parcel_lists,
        parcel_lists,
        st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_push_scaled(self, pairs, extra, factor):
        fused = fill(pairs)
        composed = fill(pairs)
        parcels = [Parcel(c, g) for c, g in extra]
        returned = fused.push_scaled(*as_columns(extra), factor)
        scaled = scale_parcels(parcels, factor)
        composed.push_parcels(scaled)
        assert as_pairs(fused) == as_pairs(composed)
        assert fused.count == composed.count
        assert returned == parcels_total(scaled)

    @given(
        parcel_lists,
        parcel_lists,
        counts,
        st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_transfer_into(self, pairs, extra, amount, age):
        fused, fused_src = fill(pairs), fill(extra)
        composed, composed_src = fill(pairs), fill(extra)
        moved = fused_src.transfer_into(fused, amount, age)
        popped = composed_src.pop(amount)
        composed.push_parcels(age_parcels(popped, age))
        assert as_pairs(fused) == as_pairs(composed)
        assert fused.count == composed.count
        assert as_pairs(fused_src) == as_pairs(composed_src)
        assert fused_src.count == composed_src.count
        assert moved == pytest.approx(
            parcels_total(popped), abs=1e-9 + 1e-12 * moved
        )

    @given(parcel_lists, counts)
    @settings(max_examples=100)
    def test_drop_oldest_leaves_same_tail_as_pop(self, pairs, amount):
        dropper = fill(pairs)
        popper = fill(pairs)
        dropped = dropper.drop_oldest(amount)
        popped = popper.pop(amount)
        assert as_pairs(dropper) == as_pairs(popper)
        assert dropped == pytest.approx(
            parcels_total(popped), abs=1e-9 + 1e-12 * dropped
        )


class TestCopyOnWriteIsolation:
    """clone_cow shares storage but never observable state."""

    @given(parcel_lists, ops)
    @settings(max_examples=100)
    def test_mutating_original_never_touches_clone(self, pairs, sequence):
        queue = fill(pairs)
        snapshot = fill(pairs)  # built separately, trivially independent
        cow = queue.clone_cow()
        self._apply(queue, sequence)
        assert as_pairs(cow) == as_pairs(snapshot)
        assert cow.count == snapshot.count

    @given(parcel_lists, ops)
    @settings(max_examples=100)
    def test_mutating_clone_never_touches_original(self, pairs, sequence):
        queue = fill(pairs)
        snapshot = fill(pairs)
        cow = queue.clone_cow()
        self._apply(cow, sequence)
        assert as_pairs(queue) == as_pairs(snapshot)
        assert queue.count == snapshot.count

    @staticmethod
    def _apply(queue: FluidQueue, sequence) -> None:
        for op in sequence:
            kind = op[0]
            if kind == "push":
                queue.push(op[1], op[2])
            elif kind == "pop":
                queue.pop(op[1])
            elif kind == "drop_oldest":
                queue.drop_oldest(op[1])
            elif kind == "drop_older_than":
                queue.drop_older_than(op[1])
            elif kind == "push_scaled":
                queue.push_scaled(*as_columns(op[1]), op[2])
            elif kind == "transfer_into":
                fill(op[1]).transfer_into(queue, op[2], op[3])
            elif kind == "clear":
                queue.clear()
            elif kind == "clone_cow":
                queue.clone_cow()
