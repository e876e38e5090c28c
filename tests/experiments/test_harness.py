"""Tests for repro.experiments.harness - wiring and dynamics."""

import pytest

from repro.baselines.variants import degrade, no_adapt, wasp
from repro.chaos.faults import SiteCrash
from repro.chaos.injector import ChaosInjector
from repro.config import WaspConfig
from repro.core.actions import ActionKind
from repro.errors import ChaosError, ConfigurationError
from repro.experiments.harness import DynamicsSpec, ExperimentRun
from repro.experiments.scenarios import bottleneck_dynamics, fig8_scenario
from repro.fuzz.generate import build_run, generate_scenario
from repro.fuzz.invariants import InvariantChecker
from repro.sim.recorder import RunRecorder
from repro.sim.rng import RngRegistry
from repro.sim.schedule import Schedule
from repro.workloads.queries import ysb_advertising
from tests.slots import fully_deployed


@pytest.fixture
def run(testbed, rngs):
    query = ysb_advertising(testbed)
    return ExperimentRun(testbed, query, no_adapt(), rngs=rngs)


class TestWiring:
    def test_initial_deployment_complete(self, run):
        assert fully_deployed(run.runtime.plan)
        assert run.scheduler.initial_slots is not None

    def test_stateful_stages_have_state(self, run):
        assert run.state_store.total_mb("join{ads+campaigns}") > 0

    def test_no_adapt_has_no_manager(self, run):
        assert run.manager is None

    def test_wasp_variant_gets_manager(self, testbed, rngs):
        query = ysb_advertising(testbed)
        run = ExperimentRun(testbed, query, wasp(), rngs=rngs)
        assert run.manager is not None
        # One adaptation log: the manager's is the run recorder's list.
        assert run.manager.attempt_log is run.recorder.attempt_log

    def test_degrade_sets_engine_slo(self, testbed, rngs):
        query = ysb_advertising(testbed)
        run = ExperimentRun(testbed, query, degrade(), rngs=rngs)
        assert run.runtime.degrade_slo_s == 10.0

    def test_step_records_sample(self, run):
        report = run.step()
        (sample,) = run.recorder.samples
        assert report is run.runtime.last_report
        assert sample.t_s == report.t_s == 1.0
        assert sample.offered == report.offered > 0
        assert sample.parallelism == report.parallelism

    def test_run_duration(self, run):
        run.run(30)
        assert run.clock.now_s == pytest.approx(30.0)
        assert len(run.recorder.samples) == 30


class TestSampleParallelism:
    """``TickSample.parallelism`` comes from the tick's report, which reads
    the plan cache the tick validated; it must track every adaptation."""

    @pytest.mark.parametrize("backend", ["reference", "dense"])
    def test_next_sample_follows_scale_out(self, backend):
        scenario = fig8_scenario("ysb-advertising")
        rngs = RngRegistry(42)
        topology = scenario.make_topology(rngs)
        query = scenario.make_query(topology, rngs)
        run = ExperimentRun(
            topology,
            query,
            wasp(),
            rngs=rngs,
            config=WaspConfig(engine_backend=backend),
        )
        run.set_dynamics(bottleneck_dynamics())
        scaled_out = False
        for _ in range(int(scenario.duration_s)):
            # Bottleneck dynamics never fail a site, so nothing changes the
            # plan between here and the tick.
            expected = run.runtime.plan.total_parallelism()
            run.step()
            sample = run.recorder.samples[-1]
            assert sample.parallelism == expected
            if scaled_out:
                break
            scaled_out = any(
                record.kind is ActionKind.SCALE_OUT
                for record in run.manager.history
            )
            if scaled_out:
                assert (
                    run.runtime.plan.total_parallelism() != sample.parallelism
                )
        assert scaled_out


class TestDynamics:
    def test_workload_schedule_applies(self, run):
        run.set_dynamics(
            DynamicsSpec(workload_schedule=Schedule([(0.0, 1.0), (5.0, 2.0)]))
        )
        run.run(4)
        offered_before = run.recorder.samples[-1].offered
        run.run(10)
        offered_after = run.recorder.samples[-1].offered
        assert offered_after == pytest.approx(2 * offered_before, rel=0.01)

    def test_bandwidth_schedule_applies(self, run):
        link = run.topology.links()[0]
        base = link.bandwidth_mbps
        run.set_dynamics(
            DynamicsSpec(bandwidth_schedule=Schedule([(0.0, 1.0), (2.0, 0.5)]))
        )
        run.run(5)
        assert run.topology.bandwidth_mbps(link.src, link.dst) == (
            pytest.approx(base * 0.5)
        )

    def test_per_link_schedule(self, run):
        link = run.topology.links()[0]
        run.set_dynamics(
            DynamicsSpec(
                link_bandwidth_schedules={
                    (link.src, link.dst): Schedule([(0.0, 0.25)])
                }
            )
        )
        run.run(2)
        assert run.topology.bandwidth_mbps(link.src, link.dst) == (
            link.bandwidth_mbps * 0.25
        )

    def test_failure_window(self, run):
        run.set_dynamics(
            DynamicsSpec(faults=[(3.0, SiteCrash(None, duration_s=4.0))])
        )
        run.run(4)
        assert all(s.failed for s in run.topology)
        run.run(5)  # to t = 9 > 7
        assert not any(s.failed for s in run.topology)

    def test_partial_failure(self, run):
        victim = run.topology.site_names[0]
        run.set_dynamics(
            DynamicsSpec(faults=[(1.0, SiteCrash(victim, duration_s=2.0))])
        )
        run.run(2)
        assert run.topology.site(victim).failed
        assert sum(1 for s in run.topology if s.failed) == 1

    def test_reinstalling_the_spec_fires_each_fault_once(self, run):
        dynamics = DynamicsSpec(faults=[(3.0, SiteCrash(None, duration_s=4.0))])
        for _ in range(10):
            run.run(1.0, dynamics)
        kinds = [f.kind for f in run.recorder.faults]
        assert kinds == ["site-crash", "site-crash:revert"]

    def test_faults_share_an_attached_injector(self, run):
        victim = run.topology.site_names[0]
        injector = ChaosInjector(rng=run.rngs.stream("chaos"))
        run.attach_chaos(injector)
        run.set_dynamics(
            DynamicsSpec(faults=[(1.0, SiteCrash(victim, duration_s=2.0))])
        )
        assert run._chaos is injector
        run.run(2)
        assert run.topology.site(victim).failed

    def test_fault_validated_when_installed(self, run):
        with pytest.raises(ChaosError, match="unknown site"):
            run.set_dynamics(DynamicsSpec(faults=[(1.0, SiteCrash("nowhere"))]))

    def test_second_injector_rejected(self, run):
        victim = run.topology.site_names[0]
        first = ChaosInjector(rng=run.rngs.stream("chaos"))
        first.at(1.0, SiteCrash(victim, duration_s=2.0))
        run.attach_chaos(first)
        with pytest.raises(ChaosError, match="already has a chaos injector"):
            run.attach_chaos(ChaosInjector(rng=run.rngs.stream("other")))
        run.run(4)  # the first injector still recovers its crash
        assert not run.topology.site(victim).failed

    def test_injector_recording_elsewhere_rejected(self, run):
        # Its faults would land in the other recorder, and the run's
        # digest and figure fault lines would silently drop them.
        injector = ChaosInjector(
            rng=run.rngs.stream("chaos"), recorder=RunRecorder("mine")
        )
        with pytest.raises(ChaosError, match="another RunRecorder"):
            run.attach_chaos(injector)
        assert run._chaos is None

    def test_injector_recording_into_the_run_accepted(self, run):
        victim = run.topology.site_names[0]
        injector = ChaosInjector(
            rng=run.rngs.stream("chaos"), recorder=run.recorder
        ).at(1.0, SiteCrash(victim, duration_s=2.0))
        run.attach_chaos(injector)
        run.run(4)
        kinds = [f.kind for f in run.recorder.faults]
        assert kinds == ["site-crash", "site-crash:revert"]


class TestDeterminism:
    def test_identical_seeds_identical_runs(self):
        from repro.network.traces import paper_testbed

        def make_run():
            rngs = RngRegistry(99)
            topo = paper_testbed(rngs.stream("topology"))
            query = ysb_advertising(topo)
            run = ExperimentRun(topo, query, wasp(), rngs=rngs)
            run.run(120, DynamicsSpec(
                workload_schedule=Schedule([(0.0, 1.0), (50.0, 2.0)])
            ))
            return run

        import numpy as np

        a, b = make_run(), make_run()
        assert np.allclose(
            a.recorder.delay_series(),
            b.recorder.delay_series(),
            equal_nan=True,
        )
        assert len(a.manager.history) == len(b.manager.history)


class TestCheckerAttach:
    """A run takes one invariant checker, and a checker checks one run."""

    @staticmethod
    def _fuzz_run():
        return build_run(generate_scenario(5))

    def test_second_checker_rejected(self):
        # A second checker would replace the first's step hooks while the
        # first stayed a bus sink: it would report 0 ticks and 0 checks,
        # which reads as a clean run.
        run, dynamics = self._fuzz_run()
        first = InvariantChecker()
        run.attach_checker(first)
        with pytest.raises(ConfigurationError, match="already has"):
            run.attach_checker(InvariantChecker())
        run.run(30.0, dynamics)
        assert first.ticks_checked == 30
        assert first.checks["conservation"] > 0

    def test_checker_bound_to_a_live_run_rejected(self):
        checker = InvariantChecker()
        first, _ = self._fuzz_run()
        first.attach_checker(checker)
        second, _ = self._fuzz_run()
        with pytest.raises(ConfigurationError, match="already bound"):
            second.attach_checker(checker)
        assert second._checker is None
        assert not second.obs  # no sink attached either
