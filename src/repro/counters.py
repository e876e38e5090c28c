"""Shared monotonic version counters.

Caches keyed on a version stay valid until the counter moves.  Where many
objects can change one cached view (every site of a topology, every stage
of a plan), they share one :class:`VersionCounter`, so checking the view
costs one read instead of a walk over the objects.
"""

from __future__ import annotations


class VersionCounter:
    """A mutable monotonic counter; its owners bump it on every change."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"VersionCounter({self.value})"
