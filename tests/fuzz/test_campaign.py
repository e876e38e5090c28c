"""Tests for campaign sharding, crash folding, shrinking and artifacts.

Scenario runs are shortened by patching the campaign's view of
``generate_scenario`` to truncate durations - the generator itself is
untouched, and worker processes inherit the patch via fork.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.engine.dense as dense_module
from repro.errors import ConfigurationError
from repro.fuzz import campaign
from repro.fuzz.campaign import (
    load_artifact,
    run_campaign,
    run_scenario,
    shrink_scenario,
    write_artifact,
)
from repro.fuzz.generate import generate_scenario
from repro.fuzz.invariants import Violation

from tests.engine import column_routing
from tests.engine.column_routing import ColumnRoutingRuntime
from tests.engine.parcels import drop_oldest


def short_scenario(seed, duration_s=40.0):
    return dataclasses.replace(
        generate_scenario(seed), duration_s=duration_s
    )


@pytest.fixture
def short_scenarios(monkeypatch):
    monkeypatch.setattr(campaign, "generate_scenario", short_scenario)


class TestCampaign:
    def test_report_independent_of_job_count(self, short_scenarios):
        serial = run_campaign(2, jobs=1)
        sharded = run_campaign(2, jobs=2)
        assert serial.to_json() == sharded.to_json()
        assert serial.ok
        assert serial.totals() == {}
        assert serial.checks().get("conservation", 0) > 0
        payload = json.loads(serial.to_json())
        assert payload["schema"] == campaign.REPORT_SCHEMA
        assert payload["num_failing"] == 0
        assert [r["seed"] for r in payload["results"]] == [0, 1]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            run_campaign(0)
        with pytest.raises(ConfigurationError):
            run_campaign(1, jobs=0)

    def test_generation_crash_folds_into_report(self, monkeypatch):
        def boom(seed):
            raise ValueError("generator exploded")

        monkeypatch.setattr(campaign, "generate_scenario", boom)
        report = run_campaign(1)
        assert not report.ok
        assert report.totals() == {"crash": 1}
        (result,) = report.results
        assert "generator exploded" in result.violations[0].detail

    def test_run_crash_folds_into_result(self, monkeypatch):
        def boom(spec):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(campaign, "build_run", boom)
        result = run_scenario(short_scenario(0))
        assert result.invariants_hit() == ["crash"]
        assert "engine exploded" in result.violations[0].detail

    def test_digest_mismatch_becomes_replay_violation(self, monkeypatch):
        digests = iter(["digest-one", "digest-two"])
        monkeypatch.setattr(
            campaign, "recorder_digest", lambda recorder: next(digests)
        )
        result = run_scenario(short_scenario(0))
        assert "replay-digest" in result.invariants_hit()


class TestArtifacts:
    def test_round_trip(self, tmp_path):
        spec = generate_scenario(5)
        violations = [Violation("conservation", 12.0, "leaked 3 events")]
        path = write_artifact(tmp_path / "repro.json", spec, violations)
        loaded_spec, payload = load_artifact(path)
        assert loaded_spec == spec
        assert payload["invariant"] == "conservation"
        assert payload["violations"][0]["t_s"] == 12.0

    def test_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "not-a-repro.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ConfigurationError):
            load_artifact(path)


class TestShrinking:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            shrink_scenario(generate_scenario(0), "conservation", mode="no")

    def test_rejects_non_reproducing_spec(self):
        with pytest.raises(ConfigurationError):
            shrink_scenario(short_scenario(1), "conservation", max_evals=1)

    def test_shrinks_leaky_repro(self, monkeypatch):
        # The runs tick the previous engine, whose WAN transfer goes
        # through a function the leak can wrap.
        monkeypatch.setattr(
            dense_module, "EngineRuntime", ColumnRoutingRuntime
        )
        original = column_routing.transfer_into

        def leaky(src, dst, max_events, extra_age_s):
            moved = original(src, dst, max_events, extra_age_s)
            drop_oldest(dst, moved * 0.1)
            return moved

        monkeypatch.setattr(column_routing, "transfer_into", leaky)
        spec = short_scenario(0, duration_s=80.0)
        shrunk, violations = shrink_scenario(
            spec, "conservation", max_evals=4
        )
        assert violations
        assert all(v.invariant == "conservation" for v in violations)
        # The very first candidate (duration truncation) must be accepted:
        # the leak fires from the first WAN crossing onward.
        assert shrunk.duration_s < spec.duration_s
