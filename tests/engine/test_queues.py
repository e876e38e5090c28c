"""Tests for repro.engine.queues - fluid FIFO queues with age accounting."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.queues import (
    FluidQueue,
    Parcel,
    age_parcels,
    parcels_mean_gen_time,
    parcels_total,
    scale_parcels,
)
from repro.errors import SimulationError


class TestPushPop:
    def test_empty_queue(self):
        queue = FluidQueue()
        assert queue.count == 0.0
        assert not queue

    def test_push_accumulates(self):
        queue = FluidQueue()
        queue.push(10.0, 0.0)
        queue.push(5.0, 1.0)
        assert queue.count == 15.0

    def test_pop_fifo_order(self):
        queue = FluidQueue()
        queue.push(10.0, 0.0)
        queue.push(10.0, 1.0)
        popped = queue.pop(10.0)
        assert len(popped) == 1
        assert popped[0].gen_time_s == 0.0

    def test_pop_splits_parcel(self):
        queue = FluidQueue()
        queue.push(10.0, 0.0)
        popped = queue.pop(4.0)
        assert parcels_total(popped) == pytest.approx(4.0)
        assert queue.count == pytest.approx(6.0)

    def test_pop_across_parcels(self):
        queue = FluidQueue()
        queue.push(3.0, 0.0)
        queue.push(3.0, 1.0)
        popped = queue.pop(5.0)
        assert parcels_total(popped) == pytest.approx(5.0)
        assert [p.gen_time_s for p in popped] == [0.0, 1.0]

    def test_pop_more_than_available(self):
        queue = FluidQueue()
        queue.push(3.0, 0.0)
        popped = queue.pop(10.0)
        assert parcels_total(popped) == pytest.approx(3.0)
        assert queue.count == 0.0

    def test_push_zero_is_noop(self):
        queue = FluidQueue()
        queue.push(0.0, 5.0)
        assert len(queue) == 0

    def test_negative_push_rejected(self):
        with pytest.raises(SimulationError):
            FluidQueue().push(-1.0, 0.0)

    def test_negative_pop_rejected(self):
        with pytest.raises(SimulationError):
            FluidQueue().pop(-1.0)

    def test_same_gen_time_parcels_merge(self):
        queue = FluidQueue()
        queue.push(1.0, 5.0)
        queue.push(2.0, 5.0)
        assert len(queue) == 1
        assert queue.count == 3.0


class TestDropping:
    def test_drop_oldest(self):
        queue = FluidQueue()
        queue.push(10.0, 0.0)
        queue.push(10.0, 5.0)
        dropped = queue.drop_oldest(12.0)
        assert dropped == pytest.approx(12.0)
        assert queue.oldest_gen_time_s() == 5.0

    def test_drop_older_than_cutoff(self):
        """The Degrade baseline's move: drop events past the SLO."""
        queue = FluidQueue()
        queue.push(10.0, 0.0)
        queue.push(10.0, 50.0)
        dropped = queue.drop_older_than(10.0)
        assert dropped == pytest.approx(10.0)
        assert queue.count == pytest.approx(10.0)

    def test_drop_older_than_keeps_fresh(self):
        queue = FluidQueue()
        queue.push(10.0, 100.0)
        assert queue.drop_older_than(50.0) == 0.0

    def test_clear(self):
        queue = FluidQueue()
        queue.push(7.0, 0.0)
        assert queue.clear() == pytest.approx(7.0)
        assert not queue


class TestAges:
    def test_mean_age(self):
        queue = FluidQueue()
        queue.push(10.0, 0.0)
        queue.push(10.0, 10.0)
        assert queue.mean_age_s(now_s=20.0) == pytest.approx(15.0)

    def test_mean_age_empty(self):
        assert FluidQueue().mean_age_s(0.0) == 0.0

    def test_oldest_gen_time_none_when_empty(self):
        assert FluidQueue().oldest_gen_time_s() is None


class TestParcelHelpers:
    def test_scale(self):
        parcels = [Parcel(10.0, 0.0), Parcel(20.0, 1.0)]
        scaled = scale_parcels(parcels, 0.5)
        assert parcels_total(scaled) == pytest.approx(15.0)

    def test_scale_zero_returns_empty(self):
        assert scale_parcels([Parcel(10.0, 0.0)], 0.0) == []

    def test_scale_negative_rejected(self):
        with pytest.raises(SimulationError):
            scale_parcels([Parcel(1.0, 0.0)], -1.0)

    def test_age_shifts_gen_time(self):
        aged = age_parcels([Parcel(1.0, 10.0)], 0.5)
        assert aged[0].gen_time_s == pytest.approx(9.5)

    def test_age_negative_rejected(self):
        with pytest.raises(SimulationError):
            age_parcels([Parcel(1.0, 0.0)], -0.1)

    def test_mean_gen_time_weighted(self):
        parcels = [Parcel(30.0, 0.0), Parcel(10.0, 4.0)]
        assert parcels_mean_gen_time(parcels) == pytest.approx(1.0)

    def test_mean_gen_time_empty_rejected(self):
        with pytest.raises(SimulationError):
            parcels_mean_gen_time([])


# ------------------------------------------------------------------------ #
# Property-based invariants
# ------------------------------------------------------------------------ #

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.floats(min_value=0.0, max_value=1e6),
            st.floats(min_value=0.0, max_value=1e6),
        ),
        st.tuples(st.just("pop"), st.floats(min_value=0.0, max_value=1e6)),
    ),
    max_size=60,
)


class TestInvariants:
    @given(operations)
    @settings(max_examples=200)
    def test_mass_conservation(self, ops):
        """pushed == popped + remaining, under any operation sequence."""
        queue = FluidQueue()
        pushed = popped = 0.0
        for op in ops:
            if op[0] == "push":
                queue.push(op[1], op[2])
                pushed += op[1]
            else:
                popped += parcels_total(queue.pop(op[1]))
        assert pushed == pytest.approx(popped + queue.count, abs=1e-6)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=1e3),
                st.floats(min_value=0.0, max_value=1e3),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_pop_order_is_fifo(self, pushes):
        """Popped parcels appear in push order."""
        queue = FluidQueue()
        for count, gen in pushes:
            queue.push(count, gen)
        popped = queue.pop(sum(c for c, _ in pushes))
        order = [p.gen_time_s for p in popped]
        # Merging only combines *adjacent* equal times, so the output order
        # must match the input order with adjacent duplicates collapsed.
        expected = []
        for _, gen in pushes:
            if not expected or abs(expected[-1] - gen) >= 1e-6:
                expected.append(gen)
        assert len(order) == len(expected)
        for got, want in zip(order, expected):
            assert got == pytest.approx(want)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=1e3),
                st.floats(min_value=0.0, max_value=1e3),
            ),
            min_size=1,
            max_size=30,
        ),
        st.floats(min_value=0.0, max_value=2e3),
    )
    def test_drop_older_than_partitions_by_cutoff(self, pushes, cutoff):
        queue = FluidQueue()
        for count, gen in pushes:
            queue.push(count, gen)
        total = queue.count
        dropped = queue.drop_older_than(cutoff)
        # drop_older_than only scans the head: it is exact when stale
        # parcels are oldest-first, which FIFO + monotone gen times give.
        # For arbitrary gen-time order it may under-drop, and parcels whose
        # gen times fall within the merge epsilon of the cutoff may be
        # quantized onto either side - so the upper bound uses the
        # epsilon-widened cutoff.  Conservation always holds.
        upper_bound = sum(c for c, g in pushes if g < cutoff + 1e-6)
        assert dropped <= upper_bound + 1e-6
        assert queue.count == pytest.approx(total - dropped, abs=1e-6)

    @given(st.floats(min_value=0.0, max_value=10.0),
           st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1,
                    max_size=10))
    def test_scale_preserves_gen_times(self, factor, counts):
        parcels = [Parcel(c, float(i)) for i, c in enumerate(counts)]
        scaled = scale_parcels(parcels, factor)
        if factor > 0:
            assert [p.gen_time_s for p in scaled] == [
                p.gen_time_s for p in parcels
            ]
            assert parcels_total(scaled) == pytest.approx(
                factor * parcels_total(parcels)
            )


class TestGarbageCollector:
    def test_queued_parcels_are_not_tracked(self):
        """Queued parcels live as untracked floats: the cyclic collector
        sees O(1) objects per queue however many parcels it holds."""
        queue = FluidQueue()
        gc.collect()
        before = len(gc.get_objects())
        for i in range(10_000):
            queue.push(1.0, float(i))  # distinct gen times: no merging
        after = len(gc.get_objects())
        assert len(queue) == 10_000
        assert after - before < 10
