"""Experiment harness and the Section-8 scenario builders."""

from .harness import DynamicsSpec, ExperimentRun
from .multiquery import MultiQueryRun, QuerySubmission
from .scenarios import run_variants

__all__ = [
    "DynamicsSpec",
    "ExperimentRun",
    "MultiQueryRun",
    "QuerySubmission",
    "run_variants",
]
