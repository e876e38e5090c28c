"""Tests for repro.api - the public facade."""

import pytest

from repro import api
from repro.errors import WaspError
from tests.slots import fully_deployed


class TestBuilders:
    def test_build_testbed(self):
        topo = api.build_testbed(seed=1)
        assert len(topo.site_names) == 16

    def test_benchmark_query(self):
        topo = api.build_testbed(seed=1)
        query = api.benchmark_query("topk-topics", topo, seed=1)
        assert query.name == "topk-topics"

    def test_unknown_query_rejected(self):
        topo = api.build_testbed(seed=1)
        with pytest.raises(WaspError):
            api.benchmark_query("nope", topo)


class TestLaunch:
    def test_launch_by_name(self):
        run = api.launch("ysb-advertising", api.no_adapt(), seed=3)
        assert fully_deployed(run.runtime.plan)
        assert run.manager is None

    def test_launch_default_variant_is_wasp(self):
        run = api.launch("ysb-advertising", seed=3)
        assert run.manager is not None

    def test_launch_prebuilt_query(self):
        topo = api.build_testbed(seed=4)
        query = api.benchmark_query("events-of-interest", topo, seed=4)
        run = api.launch(query, api.degrade(), topology=topo, seed=4)
        assert run.runtime.degrade_slo_s == 10.0

    def test_launch_unknown_name_rejected(self):
        with pytest.raises(WaspError):
            api.launch("nope")

    def test_short_run_produces_metrics(self):
        run = api.launch("ysb-advertising", api.no_adapt(), seed=3)
        recorder = run.run(30, api.quiet_dynamics())
        assert recorder.mean_delay() > 0
        assert recorder.processed_fraction() == 1.0

    def test_custom_config(self):
        config = api.WaspConfig.paper_defaults().with_overrides(alpha=0.6)
        run = api.launch("ysb-advertising", api.wasp(), config=config)
        assert run.manager.config.alpha == 0.6


class TestDynamicsHelpers:
    def test_bottleneck_dynamics_importable(self):
        dyn = api.bottleneck_dynamics()
        assert dyn.workload_schedule is not None

    def test_quiet_dynamics_empty(self):
        dyn = api.quiet_dynamics()
        assert dyn.workload_schedule is None
        assert dyn.faults == []
