"""Property tests for the Section 3.3 workload estimator.

The paper's claim: because lambda-hat is derived from *source generation*
(observed at the sources, where backpressure cannot throttle the counter)
and propagated through operator selectivities, the estimate (a) is immune
to backpressure-distorted downstream observations, (b) therefore never
falls below any throttled observed rate, and (c) responds monotonically
(indeed linearly) to input-rate changes.  Hypothesis checks these against
a naive topological-recursion reference model over random fan-in plans.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import WorkloadEstimator
from repro.engine.logical import LogicalPlan
from repro.engine.metrics import MetricsWindow
from repro.engine.operators import (
    filter_,
    sink,
    source,
    union,
    window_aggregate,
)
from repro.engine.physical import PhysicalPlan

rates = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
selectivities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def fan_in_cases(draw):
    """A plan of N sources -> per-source filter -> union -> agg -> sink,
    plus per-source generation rates."""
    n = draw(st.integers(min_value=1, max_value=3))
    sels = [draw(selectivities) for _ in range(n)]
    agg_sel = draw(selectivities)
    source_rates = {f"src{i}": draw(rates) for i in range(n)}
    ops = []
    edges = []
    for i in range(n):
        ops.append(source(f"src{i}", f"edge-{i}"))
        ops.append(filter_(f"f{i}", selectivity=sels[i]))
        edges.append((f"src{i}", f"f{i}"))
        edges.append((f"f{i}", "u"))
    ops.append(union("u"))
    ops.append(
        window_aggregate("agg", window_s=10, selectivity=agg_sel, state_mb=1)
    )
    ops.append(sink("out"))
    edges.append(("u", "agg"))
    edges.append(("agg", "out"))
    plan = PhysicalPlan(LogicalPlan.from_edges("q", ops, edges))
    return plan, sels, agg_sel, source_rates


def window(source_rates, *, offered_eps=None, mean_delay_s=0.0):
    return MetricsWindow(
        t_start_s=0.0,
        t_end_s=40.0,
        offered_eps=(
            sum(source_rates.values()) if offered_eps is None else offered_eps
        ),
        source_generation_eps=dict(source_rates),
        stages={},
        mean_delay_s=mean_delay_s,
    )


def naive_rates(sels, agg_sel, source_rates):
    """Reference recursion, written out by hand for this plan shape."""
    union_in = sum(
        source_rates[f"src{i}"] * sels[i] for i in range(len(sels))
    )
    return {"union_in": union_in, "agg_out": union_in * agg_sel}


class TestEstimatorProperties:
    @given(fan_in_cases())
    @settings(max_examples=150)
    def test_matches_naive_recursion(self, case):
        plan, sels, agg_sel, source_rates = case
        estimates = WorkloadEstimator().estimate(plan, window(source_rates))
        expected = naive_rates(sels, agg_sel, source_rates)
        assert estimates["u"].input_eps == pytest.approx(
            expected["union_in"], rel=1e-9, abs=1e-9
        )
        assert estimates["agg"].input_eps == pytest.approx(
            expected["union_in"], rel=1e-9, abs=1e-9
        )
        assert estimates["agg"].output_eps == pytest.approx(
            expected["agg_out"], rel=1e-9, abs=1e-9
        )

    @given(
        fan_in_cases(),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_backpressure_cannot_depress_lambda_hat(
        self, case, throttle, delay_s
    ):
        """A window whose *observed* arrivals are throttled to any fraction
        of the true rate (queues growing, delay exploding) yields the exact
        same estimate - hence lambda-hat >= every throttled observation."""
        plan, _, _, source_rates = case
        estimator = WorkloadEstimator()
        clean = estimator.estimate(plan, window(source_rates))
        observed_eps = throttle * sum(source_rates.values())
        throttled = estimator.estimate(
            plan,
            window(
                source_rates, offered_eps=observed_eps, mean_delay_s=delay_s
            ),
        )
        assert throttled == clean
        for name, estimate in throttled.items():
            # The throttled observed rate at any stage is at most the
            # throttle fraction of its true input; the estimate is the
            # full true input.
            assert estimate.input_eps >= throttle * clean[name].input_eps

    @given(fan_in_cases(), st.integers(min_value=0, max_value=2), rates)
    @settings(max_examples=100)
    def test_monotone_in_source_rates(self, case, which, bump):
        plan, _, _, source_rates = case
        name = f"src{which % len(source_rates)}"
        bumped = dict(source_rates)
        bumped[name] = bumped[name] + bump
        estimator = WorkloadEstimator()
        low = estimator.estimate(plan, window(source_rates))
        high = estimator.estimate(plan, window(bumped))
        for stage in low:
            assert high[stage].input_eps >= low[stage].input_eps - 1e-9
            assert high[stage].output_eps >= low[stage].output_eps - 1e-9

    @given(
        fan_in_cases(),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_linear_in_source_rates(self, case, factor):
        plan, _, _, source_rates = case
        estimator = WorkloadEstimator()
        base = estimator.estimate(plan, window(source_rates))
        scaled = estimator.estimate(
            plan,
            window({k: v * factor for k, v in source_rates.items()}),
        )
        for stage in base:
            assert scaled[stage].input_eps == pytest.approx(
                base[stage].input_eps * factor, rel=1e-9, abs=1e-6
            )
            assert scaled[stage].output_eps == pytest.approx(
                base[stage].output_eps * factor, rel=1e-9, abs=1e-6
            )
