"""Tests for the python -m repro command-line interface."""

import json
from pathlib import Path

import pytest

from repro.__main__ import _build_parser, main
from repro.config import ENGINE_BACKENDS
from repro.fuzz.campaign import (
    COUNTED_INVARIANTS,
    CampaignReport,
    ScenarioResult,
)
from repro.fuzz.invariants import INVARIANTS


class TestList:
    def test_list_exits_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "topk-topics" in out
        assert "WASP" in out
        assert "fig13" in out


class TestRun:
    def test_run_short(self, capsys):
        code = main(
            [
                "run", "--query", "ysb-advertising", "--variant", "WASP",
                "--dynamics", "quiet", "--duration", "60", "--seed", "7",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean delay" in out
        assert "WASP" in out

    def test_run_multiple_variants(self, capsys):
        code = main(
            [
                "run", "--query", "ysb-advertising",
                "--variant", "No Adapt", "--variant", "Degrade",
                "--dynamics", "quiet", "--duration", "40",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "No Adapt" in out and "Degrade" in out

    def test_unknown_variant_fails_cleanly(self, capsys):
        code = main(
            ["run", "--variant", "Nonsense", "--duration", "10"]
        )
        assert code == 2
        assert "unknown variant" in capsys.readouterr().err

    def test_unknown_query_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["run", "--query", "nope"])


class TestFigures:
    def test_fig2(self, capsys):
        assert main(["figures", "fig2"]) == 0
        assert "Oregon" in capsys.readouterr().out

    def test_fig7(self, capsys):
        assert main(["figures", "fig7"]) == 0
        assert "edge bandwidth" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["figures", "table2"]) == 0
        assert "Task Re-Assignment" in capsys.readouterr().out

    def test_table3(self, capsys):
        assert main(["figures", "table3"]) == 0
        assert "Top-K Topics" in capsys.readouterr().out

    def test_fig13(self, capsys):
        assert main(["figures", "fig13"]) == 0
        out = capsys.readouterr().out
        assert "WASP/none" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figures", "fig99"])


class TestFuzz:
    def test_campaign_smoke(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = main(["fuzz", "--seeds", "2", "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign: 2 seeds" in out
        assert "failing seeds : 0/2" in out
        assert "checks exercised:" in out
        assert "conservation" in out
        report = json.loads(out_path.read_text())
        assert report["schema"] == "wasp-fuzz-campaign/v1"
        assert report["num_failing"] == 0

    def test_replay_pinned_fixture(self, capsys):
        fixture = (
            Path(__file__).parent / "fuzz" / "fixtures" / "conservation.json"
        )
        code = main(["fuzz", "--replay", str(fixture)])
        assert code == 0
        out = capsys.readouterr().out
        assert "pinned-invariant=conservation" in out
        assert "violations: none" in out

    def test_min_exercise_met(self, capsys):
        """Seed 19 evaluates every counted invariant class at least once."""
        code = main(
            ["fuzz", "--base-seed", "19", "--seeds", "1", "--min-exercise", "1"]
        )
        assert code == 0
        assert "exercised < 1: 0 invariant class(es)" in capsys.readouterr().out

    def test_min_exercise_missed_names_every_short_class(
        self, capsys, tmp_path
    ):
        out_path = tmp_path / "report.json"
        code = main(
            [
                "fuzz", "--base-seed", "19", "--seeds", "1",
                "--min-exercise", "2", "--out", str(out_path),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        report = json.loads(out_path.read_text())
        assert report["num_failing"] == 0
        short = {
            name for name in COUNTED_INVARIANTS
            if report["checks"].get(name, 0) < 2
        }
        assert short and "alpha-cap" not in short
        assert f"exercised < 2: {len(short)} invariant class(es)" in out
        listed = out.split("exercised < 2:")[1].splitlines()[1:]
        names = {line.split()[0] for line in listed if line.startswith("    ")}
        assert names == short

    def test_min_exercise_ignores_replay_and_crash(self):
        report = CampaignReport(
            base_seed=0,
            num_seeds=1,
            results=[
                ScenarioResult(
                    seed=0, violations=[], digest="", ticks=1,
                    duration_s=1.0,
                    checks={name: 1 for name in COUNTED_INVARIANTS},
                )
            ],
        )
        assert set(INVARIANTS) - set(COUNTED_INVARIANTS) == {
            "replay-digest", "crash"
        }
        assert report.under_exercised(1) == {}
        assert set(report.under_exercised(2)) == set(COUNTED_INVARIANTS)

    def test_min_exercise_rejected_with_replay(self, capsys):
        fixture = (
            Path(__file__).parent / "fuzz" / "fixtures" / "conservation.json"
        )
        code = main(["fuzz", "--replay", str(fixture), "--min-exercise", "1"])
        assert code == 2
        assert "--min-exercise" in capsys.readouterr().err

    def test_replay_rejects_non_artifact(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"schema": "other/v1"}')
        assert main(["fuzz", "--replay", str(bogus)]) == 2
        assert "not a wasp-fuzz-repro/v1" in capsys.readouterr().err

    def test_replay_rejects_unknown_config_field(self, capsys, tmp_path):
        """An artifact naming a field WaspConfig lacks is an input error
        (exit 2), not a ``crash`` finding of the replayed run."""
        fixture = (
            Path(__file__).parent / "fuzz" / "fixtures" / "conservation.json"
        )
        payload = json.loads(fixture.read_text())
        payload["spec"]["config_overrides"]["bogus"] = 1
        artifact = tmp_path / "unknown-field.json"
        artifact.write_text(json.dumps(payload))
        assert main(["fuzz", "--replay", str(artifact)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bogus" in err


class TestBackendFlag:
    """``--backend`` takes the same three values on every command and
    defaults to the config's ``engine_backend``."""

    @pytest.mark.parametrize(
        "command", [["run"], ["figures", "fig8"], ["fuzz"]]
    )
    def test_choices_and_default(self, command):
        parser = _build_parser()
        assert parser.parse_args(command).backend is None
        for name in ENGINE_BACKENDS:
            assert parser.parse_args([*command, "--backend", name]).backend == (
                name
            )
        with pytest.raises(SystemExit):
            parser.parse_args([*command, "--backend", "fast"])

    def test_run_reports_the_configured_backend(self, capsys):
        argv = [
            "run", "--query", "ysb-advertising", "--dynamics", "quiet",
            "--duration", "5",
        ]
        assert main(argv) == 0
        assert "backend=auto" in capsys.readouterr().out
        assert main([*argv, "--backend", "dense"]) == 0
        assert "backend=dense" in capsys.readouterr().out

    def test_figures_note_only_for_an_explicit_backend(self, capsys):
        assert main(["figures", "table2"]) == 0
        assert "--backend ignored" not in capsys.readouterr().err
        assert main(["figures", "table2", "--backend", "dense"]) == 0
        assert "--backend ignored for table2" in capsys.readouterr().err
