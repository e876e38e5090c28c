"""Differential and property tests for the dense (numpy SoA) backend.

Three layers of evidence that ``repro.engine.dense`` is a faithful drop-in
for the reference per-parcel engine:

* **Fuzz differential**: generated scenarios (chaos faults included) run
  under both backends; run-level aggregates must agree within tolerances.
  Tolerances are loose on delay because the dense backend's age buckets
  mix generation times *within* a bucket: after an adaptation reshuffles
  queues mid-run the per-tick delay can transiently diverge, which in turn
  can shift a near-threshold controller decision by one monitoring
  interval.  Raw engine ticks (no adaptations) agree to ~1e-13.
* **Determinism**: the same dense spec twice produces bit-identical
  recorder digests, and dense scenarios pass the full invariant checker
  (mass conservation, queue non-negativity, slot feasibility, ...).
* **Kernel properties**: Hypothesis drives the fused pop kernel against a
  naive per-bucket ledger, checking FIFO order and mass conservation, and
  pins the in-place kernels bit for bit: the pop against the allocating
  formulation it replaced (slice and index-array rows alike), the array
  to queue sync against queues built by ``FluidQueue.push``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.perf.scale import build_world
from repro.config import WaspConfig
from repro.engine.dense import (
    _DRAIN_EPS,
    DenseEngineRuntime,
    _pop_rows,
    _PopScratch,
    _row_queues,
    create_runtime,
)
from repro.engine.queues import FluidQueue
from repro.engine.runtime import EngineRuntime
from repro.fuzz.campaign import recorder_digest, run_scenario
from repro.fuzz.generate import build_run, generate_scenario

#: Seeds chosen to cover quiet runs, adaptation-heavy runs (0, 7, 9) and
#: drop-heavy overload runs where delay tolerance matters (2, 5).
DIFF_SEEDS = [0, 1, 2, 5, 7, 9]


def _with_backend(spec, backend: str):
    return dataclasses.replace(
        spec,
        config_overrides={
            **spec.config_overrides,
            "engine_backend": backend,
        },
    )


def _run_aggregates(spec) -> dict:
    run, dynamics = build_run(spec)
    run.run(spec.duration_s, dynamics)
    recorder = run.recorder
    return {
        "runtime": run.runtime,
        "processed": recorder.total_processed(),
        "fraction": recorder.processed_fraction(),
        "mean_delay": recorder.mean_delay(),
        "p99_delay": recorder.delay_percentile(0.99),
        "adaptations": len(recorder.adaptations),
    }


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_fuzz_differential(seed: int) -> None:
    """Reference and dense agree on run-level aggregates per fuzz seed."""
    spec = generate_scenario(seed)
    ref = _run_aggregates(_with_backend(spec, "reference"))
    dense = _run_aggregates(_with_backend(spec, "dense"))

    assert isinstance(ref["runtime"], EngineRuntime)
    assert not isinstance(ref["runtime"], DenseEngineRuntime)
    assert isinstance(dense["runtime"], DenseEngineRuntime)

    assert _rel(ref["processed"], dense["processed"]) < 0.02
    assert abs(ref["fraction"] - dense["fraction"]) < 0.02
    # Delay metrics carry the bucket-mixing divergence (see module docs):
    # require agreement to 30% relative or 0.5 s absolute, whichever is
    # looser.  Calibrated worst case across the seed set is 20% relative
    # on a drop-heavy overload run.
    for key in ("mean_delay", "p99_delay"):
        assert (
            _rel(ref[key], dense[key]) < 0.30
            or abs(ref[key] - dense[key]) < 0.5
        ), f"{key}: reference={ref[key]} dense={dense[key]}"
    # Adaptation counts may shift by one round on near-threshold runs.
    assert abs(ref["adaptations"] - dense["adaptations"]) <= 1


def test_dense_backlog_matches_reference_exactly() -> None:
    """End-of-run queue backlogs are bit-equal on a quiet scenario."""
    spec = generate_scenario(1)
    ref = _run_aggregates(_with_backend(spec, "reference"))
    dense = _run_aggregates(_with_backend(spec, "dense"))
    assert ref["runtime"].total_backlog() == dense["runtime"].total_backlog()


@pytest.mark.parametrize("seed", [0, 2])
def test_dense_is_deterministic(seed: int) -> None:
    """Same dense spec twice -> bit-identical recorder digests."""
    spec = _with_backend(generate_scenario(seed), "dense")
    digests = []
    for _ in range(2):
        run, dynamics = build_run(spec)
        run.run(spec.duration_s, dynamics)
        digests.append(recorder_digest(run.recorder))
    assert digests[0] == digests[1]


@pytest.mark.parametrize("seed", [0, 2, 5, 7])
def test_dense_passes_invariant_checker(seed: int) -> None:
    """Dense scenarios run clean under the full runtime invariant suite."""
    spec = _with_backend(generate_scenario(seed), "dense")
    result = run_scenario(spec, verify_digest=(seed == 0))
    assert result.ok, [
        f"t={v.t_s} {v.invariant}: {v.detail}" for v in result.violations
    ]
    assert result.ticks > 0


# --------------------------------------------------------------------------- #
# Kernel properties (Hypothesis vs a naive per-bucket ledger)
# --------------------------------------------------------------------------- #

counts = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
gen_times = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


def _naive_pop_row(c_row, m_row, cap):
    """Scalar oldest-first pop: the ledger the fused kernel must match."""
    B = len(c_row)
    take = np.zeros(B)
    tm = np.zeros(B)
    remaining = cap
    for j in range(B - 1, -1, -1):
        t = min(remaining, c_row[j])
        take[j] = t
        if c_row[j] > 0.0:
            tm[j] = m_row[j] * (t / c_row[j])
        remaining -= t
    return take, tm


@st.composite
def pop_cases(draw):
    n_rows = draw(st.integers(min_value=1, max_value=4))
    n_buckets = draw(st.integers(min_value=4, max_value=8))
    cnt = np.array(
        [
            [draw(counts) for _ in range(n_buckets)]
            for _ in range(n_rows)
        ]
    )
    gen = np.array(
        [
            [draw(gen_times) for _ in range(n_buckets)]
            for _ in range(n_rows)
        ]
    )
    caps = np.array(
        [
            draw(
                st.floats(
                    min_value=0.0,
                    max_value=3e6,
                    allow_nan=False,
                    allow_infinity=False,
                )
            )
            for _ in range(n_rows)
        ]
    )
    return cnt, cnt * gen, caps


@given(pop_cases())
@settings(max_examples=200, deadline=None)
def test_pop_rows_conserves_mass(case) -> None:
    cnt0, mass0, caps = case
    cnt = cnt0.copy()
    mass = mass0.copy()
    rows = np.arange(cnt.shape[0])
    take, tm, popped, before = _pop_rows(
        cnt, mass, rows, caps, _PopScratch(rows, *cnt.shape)
    )

    total = float(cnt0.sum())
    tol = 1e-6 + 1e-9 * total
    mass_tol = 1e-6 + 1e-9 * float(np.abs(mass0).sum())

    # Bounds: never pop more than a bucket holds, never negative.
    assert (take >= -tol).all()
    assert (take <= cnt0 + tol).all()
    # Popped totals: exactly min(cap, queued), split across buckets.
    np.testing.assert_allclose(before, cnt0.sum(axis=1), atol=tol)
    np.testing.assert_allclose(popped, np.minimum(caps, before), atol=tol)
    np.testing.assert_allclose(take.sum(axis=1), popped, atol=tol)
    # Conservation: what left plus what stayed is what was there.
    np.testing.assert_allclose(cnt + take, cnt0, atol=tol)
    np.testing.assert_allclose(mass + tm, mass0, atol=mass_tol)
    # Fully drained rows are snapped to exactly zero (no residue).
    drained = before - popped < _DRAIN_EPS
    assert (cnt[drained] == 0.0).all()
    assert (mass[drained] == 0.0).all()


@given(pop_cases())
@settings(max_examples=200, deadline=None)
def test_pop_rows_matches_naive_ledger(case) -> None:
    """FIFO (oldest-bucket-first) order and per-bucket splits match the
    scalar ledger within float-reassociation tolerance."""
    cnt0, mass0, caps = case
    cnt = cnt0.copy()
    mass = mass0.copy()
    rows = np.arange(cnt.shape[0])
    take, tm, _, _ = _pop_rows(
        cnt, mass, rows, caps, _PopScratch(rows, *cnt.shape)
    )

    tol = 1e-6 + 1e-9 * float(cnt0.sum())
    mass_tol = 1e-3 + 1e-9 * float(np.abs(mass0).sum())
    for i in range(cnt0.shape[0]):
        naive_take, naive_tm = _naive_pop_row(cnt0[i], mass0[i], caps[i])
        np.testing.assert_allclose(take[i], naive_take, atol=tol)
        np.testing.assert_allclose(tm[i], naive_tm, atol=mass_tol)


def _allocating_pop_rows(cnt, mass, rows, caps):
    """The pop kernel as first written, with one temporary per step: the
    in-place kernel must reproduce it bit for bit."""
    c = cnt[rows]
    m = mass[rows]
    rc = c[:, ::-1]
    cum = rc.cumsum(axis=1)
    prev = np.empty_like(cum)
    prev[:, 0] = 0.0
    prev[:, 1:] = cum[:, :-1]
    take = np.minimum(np.maximum(caps[:, None] - prev, 0.0), rc)[:, ::-1]
    frac = take / np.maximum(c, 1e-300)
    tm = m * frac
    new_c = c - take
    new_m = m - tm
    before = cum[:, -1]
    popped = np.minimum(caps, before)
    drained = before - popped < _DRAIN_EPS
    if drained.any():
        new_c[drained] = 0.0
        new_m[drained] = 0.0
    cnt[rows] = new_c
    mass[rows] = new_m
    return take, tm, popped, before


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@given(pop_cases(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_pop_rows_is_bit_identical_to_allocating_kernel(case, as_slice) -> None:
    """Same bits as the allocating kernel, whether the rows are an
    ascending run (a slice: in-place views) or scattered (an index array:
    gather, then scatter back).  Untouched rows stay untouched."""
    cnt0, mass0, caps = case
    n, B = cnt0.shape
    # Embed the case between padding rows so neither selector is trivial.
    pad_c = np.full((2 * n + 1, B), 7.0)
    pad_m = np.full((2 * n + 1, B), 3.0)
    ids = list(range(1, n + 1)) if as_slice else list(range(2 * n - 1, 0, -2))
    pad_c[ids] = cnt0
    pad_m[ids] = mass0
    rows = slice(1, n + 1) if as_slice else np.array(ids, dtype=np.intp)

    cnt_a, mass_a = pad_c.copy(), pad_m.copy()
    expected = _allocating_pop_rows(cnt_a, mass_a, rows, caps)
    cnt_b, mass_b = pad_c.copy(), pad_m.copy()
    got = _pop_rows(cnt_b, mass_b, rows, caps, _PopScratch(rows, n, B))

    for e, g in zip(expected, got):
        assert _bits(e) == _bits(g)
    assert _bits(cnt_a) == _bits(cnt_b)
    assert _bits(mass_a) == _bits(mass_b)


def _pushed_queues(cnt, mass, persistent):
    """Queues built one ``push`` per non-empty bucket, oldest first."""
    out = []
    for i, keep in enumerate(persistent):
        total = float(cnt[i].sum())
        if total <= 0.0 and not keep:
            out.append(None)
            continue
        queue = FluidQueue()
        if total > 0.0:
            for b in range(cnt.shape[1] - 1, -1, -1):
                c = float(cnt[i, b])
                if c > 0.0:
                    queue.push(c, float(mass[i, b]) / c)
        out.append(queue)
    return out


@st.composite
def sync_cases(draw):
    """Rows of buckets, some empty, whose mean generation times are often
    within push's merge window of their neighbours."""
    n_rows = draw(st.integers(min_value=1, max_value=6))
    n_buckets = draw(st.integers(min_value=4, max_value=8))
    bucket_count = st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-9, max_value=1e6),
    )
    # Generation times on a 4e-7 grid: neighbours one or two steps apart
    # merge, three or more do not.
    gen_step = st.integers(min_value=-40, max_value=40)
    cnt = np.array(
        [[draw(bucket_count) for _ in range(n_buckets)] for _ in range(n_rows)]
    )
    gen = np.array(
        [
            [100.0 + 4e-7 * draw(gen_step) for _ in range(n_buckets)]
            for _ in range(n_rows)
        ]
    )
    persistent = [draw(st.booleans()) for _ in range(n_rows)]
    return cnt, cnt * gen, persistent


@given(sync_cases())
@settings(max_examples=300, deadline=None)
def test_row_queues_match_push_built_queues(case) -> None:
    cnt, mass, persistent = case
    got = _row_queues(cnt, mass, persistent)
    expected = _pushed_queues(cnt, mass, persistent)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert (g is None) == (e is None)
        if e is None:
            continue
        assert repr(g.count) == repr(e.count)
        assert len(g) == len(e)
        assert [repr((p.count, p.gen_time_s)) for p in g.parcels()] == [
            repr((p.count, p.gen_time_s)) for p in e.parcels()
        ]


def test_row_queues_on_random_arrays() -> None:
    """Large random arrays (empty rows, empty buckets, merges) too."""
    rng = np.random.default_rng(7)
    cnt = rng.exponential(100.0, size=(300, 16))
    cnt[rng.random(cnt.shape) < 0.3] = 0.0
    cnt[rng.random(300) < 0.2] = 0.0
    gen = 50.0 + 1e-6 * rng.integers(0, 3, size=cnt.shape) + np.arange(16)
    gen[:, 8:] = gen[:, 8:9]  # a run of buckets sharing one mean
    mass = cnt * gen
    persistent = (rng.random(300) < 0.5).tolist()
    got = _row_queues(cnt, mass, persistent)
    expected = _pushed_queues(cnt, mass, persistent)
    merged = 0
    for row, (g, e) in enumerate(zip(got, expected)):
        assert (g is None) == (e is None)
        if e is not None:
            assert repr(g.count) == repr(e.count)
            assert [(p.count, p.gen_time_s) for p in g.parcels()] == [
                (p.count, p.gen_time_s) for p in e.parcels()
            ]
            merged += len(e) < np.count_nonzero(cnt[row])
    assert merged > 0


# --------------------------------------------------------------------------- #
# Shared link budgets
# --------------------------------------------------------------------------- #


def _shared_budget_history(backend: str) -> tuple[list[dict], list]:
    """Two runtimes drawing on one ``link_budget`` dict per tick.

    Partial shuffle worlds: aggregation on three of six sites, then a
    fourth added mid-run, which recompiles the dense model with the new
    flows' rows after the existing ones (scattered rows).
    """
    pairs = []
    for seed in (1, 2):
        topology, plan, workload = build_world(6, 1, seed)
        for site in ("s003", "s004", "s005"):
            plan.stage("agg").remove_task_at(site)
        runtime = create_runtime(
            topology, plan, workload, WaspConfig(), backend=backend
        )
        pairs.append((plan, runtime))
    history = []
    for tick in range(40):
        if tick == 20:
            for plan, _runtime in pairs:
                plan.stage("agg").add_task("s004")
        budget: dict = {}
        for _plan, runtime in pairs:
            runtime.tick(budget)
        history.append(budget)
    return history, [runtime for _plan, runtime in pairs]


def test_shared_link_budget_matches_reference() -> None:
    """A caller-owned budget dict is read and written back by the dense
    backend exactly as by the reference: same links, in the same order,
    with remaining budgets equal to float precision."""
    ref, _ = _shared_budget_history("reference")
    dense, runtimes = _shared_budget_history("dense")
    # The recompiled model addresses its flows through index arrays.
    passes = [p for g in runtimes[0]._model.groups for p in g.passes]
    assert any(isinstance(p.flow_rows, np.ndarray) for p in passes)
    assert len(ref[0]) < len(ref[-1])
    for r, d in zip(ref, dense):
        assert list(d) == list(r)
        for link, remaining in r.items():
            assert d[link] == pytest.approx(remaining, rel=1e-9, abs=1e-3)


def test_count_and_min_on_synced_queues() -> None:
    """Queues the dense backend materializes from its bucket arrays answer
    ``count_and_min`` like their parcel lists."""
    topology, plan, workload = build_world(6, 1, 1)
    runtime = create_runtime(
        topology, plan, workload, WaspConfig(), backend="dense"
    )
    assert isinstance(runtime, DenseEngineRuntime)
    seen = 0
    for _ in range(15):
        runtime.tick()
        for _table, _key, queue in runtime.iter_queues():
            counts = [p.count for p in queue.parcels()]
            assert queue.count_and_min() == (
                queue.count,
                min(counts, default=math.inf),
            )
            seen += len(counts)
    assert seen > 0
