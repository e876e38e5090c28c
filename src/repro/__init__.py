"""WASP: Wide-area Adaptive Stream Processing - a full reproduction.

This package reproduces the system described in

    Albert Jonathan, Abhishek Chandra, Jon Weissman.
    "WASP: Wide-area Adaptive Stream Processing." Middleware '20.

on a self-contained discrete-time simulation substrate: a WAN topology model
(:mod:`repro.network`), a fluid-flow stream-processing engine standing in
for Apache Flink (:mod:`repro.engine`), a WAN-aware query planner and
scheduler (:mod:`repro.planner`), and - the paper's contribution - the WASP
monitoring/diagnosis/adaptation stack (:mod:`repro.core`).

Start with :mod:`repro.api` for the high-level interface, or
``examples/quickstart.py`` for a guided tour.  ``benchmarks/`` regenerates
every table and figure of the paper's evaluation.
"""

from . import api
from .config import WaspConfig
from .errors import WaspError

__version__ = "1.0.0"

__all__ = ["WaspConfig", "WaspError", "api", "__version__"]
