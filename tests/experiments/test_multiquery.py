"""Tests for repro.experiments.multiquery - shared-WAN co-scheduling."""

import numpy as np
import pytest

from repro.baselines.variants import no_adapt, wasp
from repro.errors import ConfigurationError
from repro.experiments.multiquery import MultiQueryRun, QuerySubmission
from repro.network.traces import paper_testbed
from repro.sim.rng import RngRegistry
from repro.workloads.queries import events_of_interest, topk_topics, ysb_advertising
from repro.workloads.twitter import TwitterSpec
from repro.workloads.ysb import YsbSpec

from tests.slots import total_used_slots


def build_multi(variants=(no_adapt(), no_adapt()), seed=42, starts=(0.0, 0.0),
                ysb_rate=10_000.0, twitter_rate=10_000.0):
    rngs = RngRegistry(seed)
    topo = paper_testbed(rngs.stream("topology"))
    submissions = [
        QuerySubmission(
            ysb_advertising(topo, YsbSpec(rate_eps=ysb_rate)),
            variants[0],
            start_s=starts[0],
        ),
        QuerySubmission(
            topk_topics(
                topo, rngs.stream("query"),
                TwitterSpec(mean_rate_eps=twitter_rate),
            ),
            variants[1],
            start_s=starts[1],
        ),
    ]
    return MultiQueryRun(topo, submissions, rngs=rngs)


def run_named(multi: MultiQueryRun, query_name: str):
    """The running query named ``query_name``."""
    for run in multi.runs:
        if run.query.name == query_name:
            return run
    raise ConfigurationError(f"no running query named {query_name!r}")


def mean_delay(recorder, lo, hi):
    series = recorder.delay_series()[lo:hi]
    series = series[~np.isnan(series)]
    return float(np.mean(series)) if len(series) else float("nan")


class TestCoScheduling:
    def test_both_queries_deploy_and_flow(self):
        multi = build_multi()
        multi.run(60)
        for run in multi.runs:
            assert sum(s.processed for s in run.recorder.samples) > 0

    def test_slots_shared_on_one_topology(self):
        multi = build_multi()
        used = total_used_slots(multi.topology)
        individual = sum(
            run.runtime.plan.total_parallelism() for run in multi.runs
        )
        assert used == individual

    def test_deferred_submission(self):
        multi = build_multi(starts=(0.0, 30.0))
        multi.run(20)
        assert len(multi.runs) == 1
        multi.run(40)
        assert len(multi.runs) == 2

    def test_empty_submissions_rejected(self):
        rngs = RngRegistry(0)
        topo = paper_testbed(rngs.stream("topology"))
        with pytest.raises(ConfigurationError):
            MultiQueryRun(topo, [], rngs=rngs)

    def test_run_named(self):
        multi = build_multi()
        assert run_named(multi, "ysb-advertising").query.name == (
            "ysb-advertising"
        )
        with pytest.raises(ConfigurationError):
            run_named(multi, "nope")


class TestContention:
    def test_second_query_costs_the_first(self):
        """Shared links: adding a heavy co-tenant increases the first
        query's delay relative to running alone."""
        alone = build_multi(starts=(0.0, 10_000.0), twitter_rate=20_000.0)
        alone.run(240)
        together = build_multi(starts=(0.0, 0.0), twitter_rate=20_000.0)
        together.run(240)
        ysb_alone = mean_delay(
            run_named(alone, "ysb-advertising").recorder, 120, 240
        )
        ysb_together = mean_delay(
            run_named(together, "ysb-advertising").recorder, 120, 240
        )
        assert ysb_together >= ysb_alone * 0.99  # never cheaper

    def test_adaptive_tenants_resolve_contention(self):
        """With WASP attached, the victims of contention re-optimize: their
        long-run delay stays near baseline even with a heavy co-tenant."""
        multi = build_multi(
            variants=(wasp(), wasp()), twitter_rate=20_000.0
        )
        multi.run(600)
        for run in multi.runs:
            assert run.recorder.processed_fraction() == 1.0
            late = mean_delay(run.recorder, 500, 600)
            assert late < 15.0

    def test_rotation_prevents_permanent_starvation(self):
        """Budget order rotates, so neither query systematically loses."""
        multi = build_multi(twitter_rate=20_000.0)
        multi.run(120)
        ratios = [
            run.recorder.processing_ratio_series()[-1]
            for run in multi.runs
        ]
        assert all(r > 0.3 for r in ratios)


class TestPerQueryExtraSlots:
    def test_a_tenant_does_not_count_another_tenants_slots(self):
        """YSB deploys at 0 s and Top-K at 20 s; neither adapts, so each
        query's extra slots stay 0 (YSB's read 14 from 20 s on while its
        parallelism stayed 12, when they were topology-wide)."""
        multi = build_multi(seed=7, starts=(0.0, 20.0))
        multi.run(40)
        ysb = multi.runs[0]
        assert ysb.query.name.startswith("ysb")
        assert len(multi.runs) == 2
        for run in multi.runs:
            assert set(run.recorder.extra_slots_series()) == {0.0}
            parallelism = {s.parallelism for s in run.recorder.samples}
            assert parallelism == {run.scheduler.initial_slots}
