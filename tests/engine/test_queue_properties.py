"""Hypothesis property tests for FluidQueue vs a naive reference model.

Complements ``test_queue_equivalence.py`` (seeded random op streams against
the verbatim pre-optimization implementation) with *property-based*
coverage: Hypothesis searches the op space for mass-conservation breaks,
fused-vs-compositional divergence and copy-on-write leaks, and shrinks any
counterexample to a minimal op sequence.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
            st.just("pop_routed"),
            counts,
            st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
        st.tuples(
            st.just("route_into"),
            parcel_lists,
            counts,
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
                removed += sum(p.count for p in pop(queue, op[1]))
            elif kind == "drop_oldest":
                removed += drop_oldest(queue, op[1])
            elif kind == "drop_older_than":
                removed += queue.drop_older_than(op[1])
            elif kind == "push_scaled":
                pushed += push_scaled(queue, *as_columns(op[1]), op[2])
            elif kind == "pop_routed":
                target = [(FluidQueue(), op[3])]
                removed += queue.pop_routed(op[1], op[2], target)[0]
            elif kind == "route_into":
                target = [(queue, 1.0)]
                pushed += fill(op[1]).pop_routed(op[2], op[3], target)[1]
            elif kind == "transfer_into":
                pushed += transfer_into(fill(op[1]), queue, op[2], op[3])
            elif kind == "clear":
                removed += clear(queue)
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
        popped, emitted = queue.pop_scaled_into(amount, 1.0, counts, gens)
        assert emitted == popped
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
        returned = push_scaled(fused, *as_columns(extra), factor)
        scaled = scale_parcels(parcels, factor)
        push_parcels(composed, scaled)
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
        moved = transfer_into(fused_src, fused, amount, age)
        popped = pop(composed_src, amount)
        push_parcels(composed, age_parcels(popped, age))
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
        dropped = drop_oldest(dropper, amount)
        popped = pop(popper, amount)
        assert as_pairs(dropper) == as_pairs(popper)
        assert dropped == pytest.approx(
            parcels_total(popped), abs=1e-9 + 1e-12 * dropped
        )


#: Generation times that land inside, on and just outside the 1e-6 merge
#: window of one another (from base 0.0 the offsets are exact).
near_gens = st.builds(
    float.__add__,
    st.sampled_from([0.0, 10.0, 11.0, 12.5]),
    st.sampled_from([0.0, 4e-7, 9.99e-7, 1e-6, 1.0001e-6, 3e-6]),
)
#: Counts including the ones a pop leaves under the 1e-12 drain threshold.
routed_counts = st.one_of(
    counts, st.sampled_from([1e-13, 4e-13, 1e-12, 2e-12, 1.0])
)
routed_parcels = st.lists(st.tuples(routed_counts, near_gens), max_size=8)
fractions = st.one_of(
    st.just(0.0),
    st.just(1.0),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


def state(queue: FluidQueue) -> str:
    """Counts, generation times and total, exactly (``repr`` keeps -0.0)."""
    return repr((list(queue._counts), list(queue._gens), queue._count))


class TestRoutedPop:
    """``pop_routed`` leaves every queue and both totals bit for bit as
    ``pop_scaled_into`` followed by one ``push_scaled`` per target."""

    @given(
        source=routed_parcels,
        share=st.one_of(
            st.floats(min_value=0.0, max_value=1.2, allow_nan=False),
            st.sampled_from([0.5, 1.0]),
        ),
        slack=st.sampled_from([0.0, 1e-13, -1e-13, 5e-13, -5e-13]),
        factor=st.one_of(
            st.just(0.0),
            st.just(1.0),
            st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
        ),
        targets=st.lists(
            st.tuples(routed_parcels, fractions, st.booleans()), max_size=3
        ),
        share_source=st.booleans(),
    )
    # Parcels exactly one merge window apart, routed to one and two targets.
    @example(
        source=[(2.0, 0.0), (1.0, 2e-6)], share=1.0, slack=0.0, factor=1.0,
        targets=[([(1.0, 1e-6)], 1.0, False)], share_source=False,
    )
    @example(
        source=[(2.0, 0.0), (1.0, 2e-6)], share=1.0, slack=0.0, factor=1.0,
        targets=[([(1.0, 1e-6)], 0.5, True), ([(1.0, 1e-6)], 0.5, False)],
        share_source=True,
    )
    @settings(max_examples=300)
    def test_matches_pop_then_push_per_target(
        self, source, share, slack, factor, targets, share_source
    ):
        routed, columns = fill(source), fill(source)
        amount = max(0.0, share * routed.count + slack)
        routed_targets: list[tuple[FluidQueue, float]] = []
        column_targets: list[tuple[FluidQueue, float]] = []
        clones = []
        for pairs, fraction, shared in targets:
            a, b = fill(pairs), fill(pairs)
            if shared:
                clones += [(a.clone_cow(), state(a)), (b.clone_cow(), state(b))]
            routed_targets.append((a, fraction))
            column_targets.append((b, fraction))
        if share_source:
            clones += [
                (routed.clone_cow(), state(routed)),
                (columns.clone_cow(), state(columns)),
            ]

        result = routed.pop_routed(amount, factor, routed_targets)
        popped_counts: list[float] = []
        popped_gens: list[float] = []
        expected = columns.pop_scaled_into(
            amount, factor, popped_counts, popped_gens
        )
        for queue, fraction in column_targets:
            push_scaled(queue, popped_counts, popped_gens, fraction)

        assert repr(result) == repr(expected)
        assert state(routed) == state(columns)
        for (a, _), (b, _) in zip(routed_targets, column_targets):
            assert state(a) == state(b)
        for clone, before in clones:
            assert state(clone) == before

    def test_rejects_negative_arguments(self):
        queue = fill([(5.0, 1.0)])
        with pytest.raises(SimulationError):
            queue.pop_routed(-1.0, 1.0, [])
        with pytest.raises(SimulationError):
            queue.pop_routed(1.0, -0.5, [])
        with pytest.raises(SimulationError):
            queue.pop_routed(1.0, 1.0, [(FluidQueue(), -0.5)])

    @given(routed_parcels, counts)
    @settings(max_examples=100)
    def test_would_pop_is_the_pop_loop_test(self, pairs, amount):
        queue = fill(pairs)
        expected = queue.would_pop(amount)
        popped, _ = queue.pop_routed(amount, 1.0, [])
        assert expected == (popped > 0)


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
                pop(queue, op[1])
            elif kind == "drop_oldest":
                drop_oldest(queue, op[1])
            elif kind == "drop_older_than":
                queue.drop_older_than(op[1])
            elif kind == "push_scaled":
                push_scaled(queue, *as_columns(op[1]), op[2])
            elif kind == "pop_routed":
                queue.pop_routed(op[1], op[2], [(FluidQueue(), op[3])])
            elif kind == "route_into":
                fill(op[1]).pop_routed(op[2], op[3], [(queue, 1.0)])
            elif kind == "transfer_into":
                transfer_into(fill(op[1]), queue, op[2], op[3])
            elif kind == "clear":
                clear(queue)
            elif kind == "clone_cow":
                queue.clone_cow()
