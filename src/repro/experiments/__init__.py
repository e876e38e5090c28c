"""Experiment harness and the Section-8 scenario builders."""

from .harness import (
    DynamicsSpec,
    ExperimentRun,
    run_variants,
)
from .multiquery import MultiQueryRun, QuerySubmission

__all__ = [
    "DynamicsSpec",
    "ExperimentRun",
    "MultiQueryRun",
    "QuerySubmission",
    "run_variants",
]
