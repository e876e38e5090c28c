"""The microbenchmark CLI: the control-plane bench and ``--check``."""

from __future__ import annotations

import json

from benchmarks.perf import __main__ as perf_cli
from benchmarks.perf.bench import BenchResult, bench_adaptation_round


def test_adaptation_round_times_a_full_window() -> None:
    result = bench_adaptation_round(calls=2)
    assert result.name == "adaptation_round"
    assert result.detail["links"] == 16 * 15
    assert result.detail["window_ticks"] == 39
    assert result.detail["refresh_us"] > 0
    assert result.detail["collect_us"] > 0


def test_check_accepts_benchmarks_missing_from_the_baseline(
    tmp_path, monkeypatch, capsys
) -> None:
    baseline = tmp_path / "BENCH_engine.json"
    baseline.write_text(json.dumps({
        "current": {
            "results": {
                "queue_ops": {"name": "queue_ops", "rate_per_s": 100.0},
            },
        },
    }))
    monkeypatch.setattr(perf_cli, "run_all", lambda mode: [
        BenchResult("queue_ops", 1.0, 95.0, "ops/s"),
        BenchResult("adaptation_round", 1.0, 500.0, "rounds/s"),
    ])
    assert perf_cli.main(["--check", "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "adaptation_round" in out and "(no baseline)" in out


def test_check_still_flags_a_rate_regression(
    tmp_path, monkeypatch, capsys
) -> None:
    baseline = tmp_path / "BENCH_engine.json"
    baseline.write_text(json.dumps({
        "current": {
            "results": {
                "queue_ops": {"name": "queue_ops", "rate_per_s": 100.0},
            },
        },
    }))
    monkeypatch.setattr(perf_cli, "run_all", lambda mode: [
        BenchResult("queue_ops", 1.0, 50.0, "ops/s"),
    ])
    assert perf_cli.main(["--check", "--baseline", str(baseline)]) == 1
    assert "REGRESSION" in capsys.readouterr().out
