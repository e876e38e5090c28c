"""``generation_rates``: one schedule read per call, bit for bit the
per-source formula.

The engine reads every source's rate with one ``generation_rates`` call
per tick, and a one-source call reads one rate.  The oracle
below is the per-source formula as it stood before the batched read:
``base * shape(source, t) * factor(t)``, a YSB campaign source at its base
rate, an unknown source at 0.0.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.schedule import Schedule
from repro.workloads.base import ShapedWorkload
from repro.workloads.twitter import TwitterSpec, TwitterWorkload
from repro.workloads.ysb import YsbWorkload

SOURCES = ["s0", "s1", "s2", "s3"]


def oracle_rate(workload, name, t_s):
    """The per-source rate as each workload class defined it."""
    if isinstance(workload, YsbWorkload) and name == workload.campaign_source:
        return workload.base_rate_eps(name)
    base = workload._base_rates.get(name)
    if base is None:
        return 0.0
    factor = workload.factor_schedule.factor(t_s)
    return base * workload.shape(name, t_s) * factor


def build(kind, seed):
    if kind == "shaped":
        rng = np.random.default_rng(seed)
        return ShapedWorkload(
            {name: float(rng.uniform(0.0, 5e4)) for name in SOURCES}
        )
    if kind == "ysb":
        return YsbWorkload(SOURCES[:3], campaign_source=SOURCES[3])
    return TwitterWorkload(
        SOURCES,
        np.random.default_rng(seed),
        TwitterSpec(day_length_s=97.0),
    )


schedules = st.lists(
    st.tuples(
        st.floats(0.0, 500.0, allow_nan=False),
        st.floats(0.0, 4.0, allow_nan=False),
    ),
    max_size=6,
    unique_by=lambda point: point[0],
)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["shaped", "ysb", "twitter"]),
    seed=st.integers(0, 2**16),
    points=schedules,
    initial=st.floats(0.0, 4.0, allow_nan=False),
    offset=st.sampled_from([0.0, -1e-9, 1e-9, -0.5, 0.5]),
    pick=st.integers(0, 5),
    names=st.lists(
        st.sampled_from(SOURCES + ["unknown", "s9"]), max_size=8
    ),
)
def test_rates_equal_the_per_source_formula(
    kind, seed, points, initial, offset, pick, names
):
    workload = build(kind, seed)
    workload.set_factor_schedule(Schedule(points, initial=initial))
    # t on a breakpoint, just beside it, or anywhere.
    if points:
        t_s = max(0.0, points[pick % len(points)][0] + offset)
    else:
        t_s = 37.0 + offset
    rates = workload.generation_rates(names, t_s)
    assert len(rates) == len(names)
    for name, rate in zip(names, rates):
        expected = oracle_rate(workload, name, t_s)
        assert repr(rate) == repr(expected)
        (one,) = workload.generation_rates([name], t_s)
        assert repr(one) == repr(expected)


def test_unknown_sources_generate_nothing():
    workload = build("twitter", 3)
    assert workload.generation_rates(["nope", "s0", "zzz"], 10.0)[::2] == [
        0.0,
        0.0,
    ]


def test_the_schedule_is_read_once_per_call():
    reads = []

    class CountingSchedule(Schedule):
        def factor(self, t_s):
            reads.append(t_s)
            return super().factor(t_s)

    workload = build("shaped", 1)
    workload.set_factor_schedule(CountingSchedule([(0.0, 1.5), (10.0, 2.0)]))
    workload.generation_rates(SOURCES, 10.0)
    assert reads == [10.0]
