"""Pinned fuzz fixtures: every invariant class stays green and exercised.

Each JSON fixture under ``fixtures/`` is a shrunk scenario (see
``regen_fixtures.py``) pinned because it *exercises* one invariant class -
the checker demonstrably evaluates that invariant at least once - while
staying violation-free.  Replaying them asserts both halves: the shipped
engine still satisfies every invariant on these scenarios, and the
checker's scoped gates still reach each check (a refactor that silently
stops a check from ever firing fails here, not in production).

Regenerate after intentional engine-behavior changes with
``PYTHONPATH=src python tests/fuzz/regen_fixtures.py``.

A paper run whose commit the checker once misjudged is replayed under the
checker as well.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.baselines.variants import wasp
from repro.experiments.harness import ExperimentRun
from repro.experiments.scenarios import fig11_scenario
from repro.fuzz.campaign import load_artifact, run_scenario
from repro.fuzz.invariants import INVARIANTS, InvariantChecker
from repro.sim.rng import RngRegistry

FIXTURE_DIR = Path(__file__).parent / "fixtures"
FIXTURES = sorted(FIXTURE_DIR.glob("*.json"))


def test_fixture_set_is_complete():
    """One fixture per pinnable invariant class.

    ``replay-digest`` and ``crash`` have no clean fixture by construction
    (they only exist as violations), but every checker-evaluated class
    must be pinned.
    """
    pinned = {path.stem for path in FIXTURES}
    expected = set(INVARIANTS) - {"replay-digest", "crash"}
    assert pinned == expected


@pytest.mark.parametrize(
    "path", FIXTURES, ids=[path.stem for path in FIXTURES]
)
def test_fixture_replays_clean_and_exercised(path):
    spec, payload = load_artifact(path)
    invariant = payload["invariant"]
    assert invariant == path.stem
    result = run_scenario(spec)  # includes the digest-determinism replay
    assert result.ok, (
        f"pinned scenario now violates invariants: "
        f"{[v.to_dict() for v in result.violations]}"
    )
    assert result.checks.get(invariant, 0) > 0, (
        f"checker no longer exercises {invariant!r} on its pinned scenario"
    )


def test_fixtures_are_normalized_json():
    """Artifacts stay byte-stable under the writer's canonical formatting,
    so regeneration produces clean diffs."""
    for path in FIXTURES:
        payload = json.loads(path.read_text())
        canonical = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert path.read_text() == canonical, path.name


def test_fig11_wasp_run_checks_clean():
    """Figure 11's WASP run at seed 42 scales a network-bound stage from
    one task to three on one site at t=600 s: the scale-out law, not
    DS2, bounds that commit."""
    scenario = fig11_scenario()
    rngs = RngRegistry(42)
    topology = scenario.make_topology(rngs)
    run = ExperimentRun(
        topology, scenario.make_query(topology, rngs), wasp(), rngs=rngs
    )
    checker = InvariantChecker()
    run.attach_checker(checker)
    run.run(660.0, scenario.make_dynamics(rngs))
    assert checker.violations == []
    assert checker.checks.get("scale-law", 0) > 0
