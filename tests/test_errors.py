"""Tests for repro.errors - the exception hierarchy."""

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.ConfigurationError,
            errors.TopologyError,
            errors.UnknownSiteError,
            errors.PlanError,
            errors.CycleError,
            errors.PlacementError,
            errors.InfeasiblePlacementError,
            errors.SchedulingError,
            errors.InsufficientSlotsError,
            errors.StateError,
            errors.MigrationError,
            errors.AdaptationError,
            errors.AdaptationRollbackError,
            errors.SimulationError,
            errors.ChaosError,
        ],
    )
    def test_everything_is_a_wasp_error(self, exc):
        assert issubclass(exc, errors.WaspError)

    def test_every_public_error_subclasses_wasp_error(self):
        """The single-``except WaspError`` contract covers the full module."""
        for name in dir(errors):
            obj = getattr(errors, name)
            if (
                isinstance(obj, type)
                and issubclass(obj, Exception)
                and obj.__module__ == errors.__name__
            ):
                assert issubclass(obj, errors.WaspError), name

    def test_unknown_site_subclasses_topology(self):
        assert issubclass(errors.UnknownSiteError, errors.TopologyError)

    def test_infeasible_subclasses_placement(self):
        assert issubclass(
            errors.InfeasiblePlacementError, errors.PlacementError
        )

    def test_insufficient_slots_subclasses_scheduling(self):
        assert issubclass(
            errors.InsufficientSlotsError, errors.SchedulingError
        )

    def test_migration_subclasses_state(self):
        assert issubclass(errors.MigrationError, errors.StateError)

    def test_rollback_subclasses_adaptation(self):
        assert issubclass(
            errors.AdaptationRollbackError, errors.AdaptationError
        )

    def test_chaos_is_a_direct_wasp_error(self):
        assert issubclass(errors.ChaosError, errors.WaspError)
        assert not issubclass(errors.ChaosError, errors.SimulationError)

    def test_cycle_subclasses_plan(self):
        assert issubclass(errors.CycleError, errors.PlanError)

    def test_unknown_site_carries_name(self):
        exc = errors.UnknownSiteError("atlantis")
        assert exc.site == "atlantis"
        assert "atlantis" in str(exc)

    def test_catching_the_family(self):
        """One except clause covers every library failure."""
        with pytest.raises(errors.WaspError):
            raise errors.InfeasiblePlacementError("nope")
