"""The runtime needs numpy only: scipy and networkx are not imported.

``pyproject.toml`` lists numpy as the one runtime dependency; scipy is a
test dependency (the MILP oracle in ``tests/planner/milp.py``).  A Figure 8
WASP run in a fresh interpreter, with both modules made unimportable,
proves that no production path reaches for them.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

BLOCKED_RUN = """
import sys
sys.modules["scipy"] = None
sys.modules["networkx"] = None
from repro.__main__ import main
raise SystemExit(main([
    "run", "--query", "topk-topics", "--variant", "WASP",
    "--dynamics", "bottleneck", "--duration", "1500",
]))
"""


def test_figure8_wasp_run_without_scipy_or_networkx():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, "-c", BLOCKED_RUN],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    # The run adapted, so placement and scaling ran too.
    assert "re-assign" in result.stdout
    assert "scale out" in result.stdout
