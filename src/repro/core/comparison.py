"""Table 2: qualitative comparison between adaptation techniques.

The table is part of the paper's contribution (Section 6.1) - it is what the
decision tree in Figure 6 is derived from - so the reproduction encodes it
as structured data with a renderer, and the policy tests assert that the
implemented behaviour matches the table's claims (e.g. re-planning is the
only technique whose applicability is query-specific; only data degradation
reduces result quality).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Applicability(enum.Enum):
    GENERAL = "General"
    QUERY_SPECIFIC = "Query-specific"


class Granularity(enum.Enum):
    STAGE = "Stage"
    QUERY = "Query"
    POLICY_DEPENDENT = "Policy-dependent"


class Overhead(enum.Enum):
    LOW = "Low"
    HIGH = "High"


@dataclass(frozen=True)
class TechniqueProfile:
    """One row of Table 2."""

    technique: str
    adaptation: str
    applicability: Applicability
    granularity: Granularity
    overhead: Overhead
    quality_reduction: bool


TABLE_2: tuple[TechniqueProfile, ...] = (
    TechniqueProfile(
        technique="Task Re-Assignment",
        adaptation="Task deployment",
        applicability=Applicability.GENERAL,
        granularity=Granularity.STAGE,
        overhead=Overhead.LOW,
        quality_reduction=False,
    ),
    TechniqueProfile(
        technique="Operator Scaling",
        adaptation="Operator parallelism",
        applicability=Applicability.GENERAL,
        granularity=Granularity.STAGE,
        overhead=Overhead.LOW,
        quality_reduction=False,
    ),
    TechniqueProfile(
        technique="Query Re-Planning",
        adaptation="Query execution plan",
        applicability=Applicability.QUERY_SPECIFIC,
        granularity=Granularity.QUERY,
        overhead=Overhead.HIGH,
        quality_reduction=False,
    ),
    TechniqueProfile(
        technique="Data Degradation",
        adaptation="Degradation policy",
        applicability=Applicability.QUERY_SPECIFIC,
        granularity=Granularity.POLICY_DEPENDENT,
        overhead=Overhead.LOW,
        quality_reduction=True,
    ),
)


def profile(technique: str) -> TechniqueProfile:
    """Look up a row by technique name (case-insensitive prefix match)."""
    needle = technique.lower()
    for row in TABLE_2:
        if row.technique.lower().startswith(needle):
            return row
    raise KeyError(f"no technique matching {technique!r}")


def render_table() -> str:
    """Render Table 2 as aligned text (the benchmark harness prints this)."""
    headers = (
        "Technique",
        "Adaptation",
        "Applicability",
        "Granularity",
        "Overhead",
        "Quality reduction",
    )
    rows = [
        (
            p.technique,
            p.adaptation,
            p.applicability.value,
            p.granularity.value,
            p.overhead.value,
            "Yes" if p.quality_reduction else "No",
        )
        for p in TABLE_2
    ]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
