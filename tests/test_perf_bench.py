"""The microbenchmark CLI (the control-plane bench and ``--check``) and the
topology-scale sweep's record of the auto backend rule."""

from __future__ import annotations

import json

from benchmarks.perf import __main__ as perf_cli
from benchmarks.perf import scale
from benchmarks.perf.bench import BenchResult, bench_adaptation_round
from repro.sim.recorder import RunRecorder


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


def test_check_compares_against_the_latest_emission(
    tmp_path, monkeypatch, capsys
) -> None:
    emission = tmp_path / "BENCH_engine.json"
    emission.write_text(json.dumps({
        "baseline": {
            "results": {
                "queue_ops": {"name": "queue_ops", "rate_per_s": 10.0},
            },
        },
        "current": {
            "results": {
                "queue_ops": {"name": "queue_ops", "rate_per_s": 100.0},
            },
        },
    }))
    monkeypatch.setattr(perf_cli, "run_all", lambda mode: [
        BenchResult("queue_ops", 1.0, 50.0, "ops/s"),
    ])
    assert perf_cli.main(["--check", "--baseline", str(emission)]) == 1
    assert "baseline        100.0" in capsys.readouterr().out


def test_scale_points_record_the_auto_backend() -> None:
    small = scale.run_point("reference", 4, 1, warmup=1, measure=2)
    assert small["auto_backend"] == "reference"
    assert small["potential_flows"] == 15
    large = scale.run_point("dense", 16, 1, warmup=1, measure=2)
    assert large["auto_backend"] == "dense"


def test_scale_controller_point_times_every_round() -> None:
    point = scale.run_controller_point(16, duration_s=120.0)
    assert point["sites"] == 16 and point["backend"] == "reference"
    assert point["rounds"] == 3  # t = 40, 80, 120
    assert 0.0 < point["collect_ms_p50"] < point["round_ms_p50"]
    assert point["round_ms_p50"] <= point["round_ms_p90"]
    assert 0.0 < point["round_share"] < 1.0


def test_scale_warns_where_auto_picked_the_slower_backend() -> None:
    def point(backend, sites, rate, auto):
        return {
            "backend": backend, "sites": sites, "parallelism": 1,
            "ticks_per_s": rate, "auto_backend": auto, "potential_flows": 0,
        }

    points = [
        point("reference", 8, 100.0, "reference"),
        point("dense", 8, 124.0, "reference"),  # 1.24x: no warning
        point("reference", 16, 100.0, "dense"),
        point("dense", 16, 79.0, "dense"),  # 1.27x: warning
    ]
    (line,) = scale.auto_warnings(points)
    assert line.startswith("sites=16 p=1") and "auto picks dense" in line


def test_perfbench_tracer_still_fits_the_source() -> None:
    """``perfbench/run.py --trace 1`` wraps each layer's functions by name
    (``vars(owner)[attr]``), so renaming or deleting one of them breaks the
    traced benchmark with a ``KeyError``; installing its tracer here
    catches that, and restoring it must put the originals back."""
    from perfbench.instrument import Patches
    from perfbench.spans import Tracer

    original = vars(RunRecorder)["record_tick"]
    patches = Patches()
    try:
        Tracer().install(patches)
        assert vars(RunRecorder)["record_tick"] is not original
    finally:
        patches.restore()
    assert vars(RunRecorder)["record_tick"] is original
