"""Tests for repro.sim.clock."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import SimClock


def run_until(clock: SimClock, end_s: float) -> None:
    """Advance tick by tick until the clock reaches ``end_s``."""
    while clock.now_s + 1e-9 < end_s:
        clock.advance()


class TestAdvance:
    def test_starts_at_zero(self):
        assert SimClock().now_s == 0.0

    def test_advance_one_tick(self):
        clock = SimClock(tick_s=1.0)
        assert clock.advance() == 1.0

    def test_tick_index_counts(self):
        clock = SimClock()
        clock.advance()
        clock.advance()
        assert clock.tick_index == 2

    def test_fractional_tick(self):
        clock = SimClock(tick_s=0.5)
        clock.advance()
        assert clock.now_s == pytest.approx(0.5)

    def test_run_until(self):
        clock = SimClock(tick_s=1.0)
        run_until(clock, 10.0)
        assert clock.now_s == pytest.approx(10.0)

    def test_run_until_no_overshoot(self):
        clock = SimClock(tick_s=3.0)
        run_until(clock, 7.0)
        assert clock.now_s == pytest.approx(9.0)  # last covering tick

    def test_invalid_tick_rejected(self):
        with pytest.raises(SimulationError):
            SimClock(tick_s=0)


class TestPeriodicCallbacks:
    def test_fires_at_period(self):
        clock = SimClock()
        fired = []
        clock.every(3.0, fired.append)
        run_until(clock, 10.0)
        assert fired == [3.0, 6.0, 9.0]

    def test_multiple_tasks_fire_in_registration_order(self):
        clock = SimClock()
        order = []
        clock.every(1.0, lambda t: order.append("a"), name="a")
        clock.every(1.0, lambda t: order.append("b"), name="b")
        clock.advance()
        assert order == ["a", "b"]

    def test_long_tick_fires_once_per_period(self):
        clock = SimClock(tick_s=10.0)
        fired = []
        clock.every(3.0, fired.append)
        clock.advance()
        assert fired == [10.0, 10.0, 10.0]

    def test_disable_stops_firing(self):
        clock = SimClock()
        fired = []
        clock.every(1.0, fired.append, name="t")
        clock.advance()
        clock.set_enabled("t", False)
        clock.advance()
        assert len(fired) == 1

    def test_reenable_resumes(self):
        clock = SimClock()
        fired = []
        clock.every(1.0, fired.append, name="t")
        clock.set_enabled("t", False)
        clock.advance()
        clock.set_enabled("t", True)
        clock.advance()
        # Catches up on the missed period plus the current one.
        assert len(fired) == 2

    def test_duplicate_name_rejected(self):
        clock = SimClock()
        clock.every(1.0, lambda t: None, name="x")
        with pytest.raises(SimulationError):
            clock.every(2.0, lambda t: None, name="x")

    def test_unknown_name_in_set_enabled(self):
        with pytest.raises(SimulationError):
            SimClock().set_enabled("nope", True)

    def test_zero_period_rejected(self):
        with pytest.raises(SimulationError):
            SimClock().every(0.0, lambda t: None)

    def test_returns_generated_name(self):
        clock = SimClock()
        name = clock.every(1.0, lambda t: None)
        assert name == "periodic-0"


class TestCallbacksFired:
    def test_zero_before_any_advance_and_on_quiet_ticks(self):
        clock = SimClock()
        clock.every(3.0, lambda t: None)
        assert clock.callbacks_fired == 0
        clock.advance()
        assert clock.callbacks_fired == 0

    def test_counts_every_firing_of_the_last_advance(self):
        clock = SimClock()
        clock.every(2.0, lambda t: None, name="a")
        clock.every(3.0, lambda t: None, name="b")
        counts = []
        for _ in range(6):
            clock.advance()
            counts.append(clock.callbacks_fired)
        assert counts == [0, 1, 1, 1, 0, 2]

    def test_multi_period_tick_counts_once_per_period(self):
        clock = SimClock(tick_s=10.0)
        clock.every(3.0, lambda t: None)
        clock.every(4.0, lambda t: None)
        clock.advance()
        assert clock.callbacks_fired == 3 + 2

    def test_disabled_tasks_do_not_count(self):
        clock = SimClock()
        clock.every(1.0, lambda t: None, name="t")
        clock.set_enabled("t", False)
        clock.advance()
        assert clock.callbacks_fired == 0
        clock.set_enabled("t", True)
        clock.advance()
        # The catch-up firing of the missed period counts too.
        assert clock.callbacks_fired == 2

    def test_visible_to_callbacks_as_they_fire(self):
        clock = SimClock()
        seen = []
        clock.every(1.0, lambda t: seen.append(clock.callbacks_fired))
        clock.every(1.0, lambda t: seen.append(clock.callbacks_fired))
        clock.advance()
        assert seen == [1, 2]
