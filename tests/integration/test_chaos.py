"""Chaos testing: random dynamics must never break system invariants.

Hypothesis generates random (but bounded) combinations of workload steps,
bandwidth steps, failures and stragglers; whatever happens, the system must
uphold its invariants: no exceptions, conserved slot accounting, sane
quality accounting, and - for the WASP variant - no dropped events.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.variants import degrade, no_adapt, wasp
from repro.chaos.faults import SiteCrash, Straggler
from repro.experiments.harness import DynamicsSpec, ExperimentRun
from repro.network.traces import paper_testbed
from repro.sim.rng import RngRegistry
from repro.sim.schedule import Schedule
from repro.workloads.queries import ysb_advertising

from tests.slots import total_used_slots

DURATION_S = 180.0

workload_schedules = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=DURATION_S),
        st.floats(min_value=0.2, max_value=3.0),
    ),
    max_size=4,
    unique_by=lambda p: p[0],
).map(lambda points: Schedule(points))

bandwidth_schedules = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=DURATION_S),
        st.floats(min_value=0.2, max_value=2.0),
    ),
    max_size=4,
    unique_by=lambda p: p[0],
).map(lambda points: Schedule(points))

fault_times = st.floats(min_value=10.0, max_value=DURATION_S - 40.0)

failures = st.lists(
    st.tuples(
        fault_times,
        st.builds(
            SiteCrash,
            site=st.none(),
            duration_s=st.floats(min_value=5.0, max_value=30.0),
        ),
    ),
    max_size=2,
)

stragglers = st.lists(
    st.tuples(
        fault_times,
        st.builds(
            Straggler,
            site=st.sampled_from(
                [f"edge-{i}" for i in range(8)]
                + ["dc-oregon", "dc-ohio", "dc-ireland"]
            ),
            slowdown=st.floats(min_value=1.5, max_value=16.0),
            duration_s=st.floats(min_value=5.0, max_value=60.0),
        ),
    ),
    max_size=2,
)

dynamics_spec = st.builds(
    DynamicsSpec,
    workload_schedule=workload_schedules,
    bandwidth_schedule=bandwidth_schedules,
    faults=st.builds(lambda f, s: f + s, failures, stragglers),
)


def run_chaos(variant, dynamics, seed):
    rngs = RngRegistry(seed)
    topology = paper_testbed(rngs.stream("topology"))
    query = ysb_advertising(topology)
    run = ExperimentRun(topology, query, variant, rngs=rngs)
    run.run(DURATION_S, dynamics)
    return run


class TestInvariantsUnderChaos:
    @given(dynamics_spec, st.integers(min_value=0, max_value=2**16))
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_wasp_never_drops_and_accounting_holds(self, dynamics, seed):
        run = run_chaos(wasp(), dynamics, seed)
        recorder = run.recorder

        # Re-optimization never sacrifices events (Table 2).
        assert recorder.total_dropped() == 0.0
        assert recorder.processed_fraction() == 1.0

        # Slot accounting is conserved: used slots equal live tasks.
        assert total_used_slots(run.topology) == (
            run.runtime.plan.total_parallelism()
        )
        for site in run.topology:
            assert 0 <= site.used_slots <= site.total_slots

        # Event accounting: everything offered is either processed, queued
        # or in flight (fluid mass conservation, in source-equivalents).
        # Checkpoint replay after a failure legitimately re-processes the
        # un-snapshotted work, so the bound includes the replayed volume.
        offered = recorder.total_offered()
        processed = sum(s.processed for s in recorder.samples)
        budget = offered + run.replayed_source_equiv
        assert processed <= budget * 1.02 + 1.0

        # State never evaporates for live stateful stages.
        for stage in run.runtime.plan.topological_stages():
            if stage.stateful and stage.parallelism > 0:
                assert run.state_store.total_mb(stage.name) >= 0.0

    @given(dynamics_spec, st.integers(min_value=0, max_value=2**16))
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_degrade_bounds_delay_of_survivors(self, dynamics, seed):
        run = run_chaos(degrade(), dynamics, seed)
        delays = run.recorder.delay_series()
        finite = delays[~np.isnan(delays)]
        if len(finite):
            # Dropping late events keeps survivor delay near the SLO (the
            # transition after a failure may briefly exceed it).
            assert float(np.percentile(finite, 90)) < 15.0

    @given(dynamics_spec, st.integers(min_value=0, max_value=2**16))
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_no_adapt_is_deterministically_safe(self, dynamics, seed):
        run = run_chaos(no_adapt(), dynamics, seed)
        assert run.recorder.total_dropped() == 0.0
        assert total_used_slots(run.topology) == (
            run.runtime.plan.total_parallelism()
        )
