"""Tests for repro.network.site."""

import pytest

from repro.errors import InsufficientSlotsError, TopologyError
from repro.network.site import Site, SiteKind


def make_site(slots=4, kind=SiteKind.EDGE):
    return Site("s", kind, slots)


class TestSlotAccounting:
    def test_initially_all_available(self):
        assert make_site(4).available_slots == 4

    def test_allocate_reduces_availability(self):
        site = make_site(4)
        site.allocate(3)
        assert site.available_slots == 1
        assert site.used_slots == 3

    def test_release_returns_slots(self):
        site = make_site(4)
        site.allocate(3)
        site.release(2)
        assert site.available_slots == 3

    def test_over_allocation_rejected(self):
        site = make_site(2)
        with pytest.raises(InsufficientSlotsError):
            site.allocate(3)

    def test_over_release_rejected(self):
        site = make_site(2)
        site.allocate(1)
        with pytest.raises(TopologyError):
            site.release(2)

    def test_negative_allocate_rejected(self):
        with pytest.raises(TopologyError):
            make_site().allocate(-1)

    def test_negative_release_rejected(self):
        with pytest.raises(TopologyError):
            make_site().release(-1)

    def test_allocate_exactly_all(self):
        site = make_site(3)
        site.allocate(3)
        assert site.available_slots == 0


class TestFailure:
    def test_failed_site_has_no_available_slots(self):
        site = make_site(4)
        site.fail()
        assert site.available_slots == 0

    def test_failed_site_rejects_allocation(self):
        site = make_site(4)
        site.fail()
        with pytest.raises(InsufficientSlotsError):
            site.allocate(1)

    def test_recover_restores_availability(self):
        site = make_site(4)
        site.allocate(1)
        site.fail()
        site.recover()
        assert site.available_slots == 3

    def test_failed_flag(self):
        site = make_site()
        assert not site.failed
        site.fail()
        assert site.failed


class TestValidation:
    def test_negative_slots_rejected(self):
        with pytest.raises(TopologyError):
            Site("s", SiteKind.EDGE, -1)

    def test_zero_proc_rate_rejected(self):
        with pytest.raises(TopologyError):
            Site("s", SiteKind.EDGE, 1, proc_rate_eps=0)

    def test_is_edge(self):
        assert Site("e", SiteKind.EDGE, 1).is_edge
        assert not Site("d", SiteKind.DATA_CENTER, 1).is_edge
