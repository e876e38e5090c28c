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
* **Kernel oracles**: the kernels keep their arrays bucket-major,
  ``(B, rows)``.  Through transposes, the pop and WAN scatter are checked
  bit for bit against the row-major sparse pop they replaced (kept here,
  verbatim; the scatter code is unchanged and runs on row-major tables)
  and the dense kernel and scatter before that, and so are the
  span-limited fan-out against the row-major and full-width ones and the
  block-copy roll against the row-major and column rolls.  The row totals
  are pinned to numpy's own row sums.
* **Flow-table oracle**: every tick's ``net_sent`` and ``net_backlog``
  tables read exactly as the dicts the tick filled before (the two fills
  kept here, verbatim), and still do five ticks later.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.perf.digest import fig8_degrade_digest
from benchmarks.perf.scale import build_world
from repro.config import WaspConfig
from repro.engine import dense as dense_module
from repro.engine.dense import (
    _DRAIN_EPS,
    DenseEngineRuntime,
    FlowTable,
    _bucket_span,
    _deliver,
    _drop_older_rows,
    _fan_out,
    _pop_rows,
    _PopScratch,
    _roll_into,
    _row_queues,
    _row_totals,
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
        "processed": sum(s.processed for s in recorder.samples),
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
#
# The kernels keep their arrays bucket-major, ``(B, rows)``; the tests state
# cases and oracles row-major, ``(rows, B)``, as the engine kept them before,
# and go through transposes.

counts = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
gen_times = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


def _densify(idx, values, shape):
    """A sparse pop's per-cell values as a dense array, zero elsewhere."""
    out = np.zeros(shape)
    out.reshape(-1)[idx] = values
    return out


def _n_rows(rows) -> int:
    return rows.stop - rows.start if isinstance(rows, slice) else len(rows)


def _bm_pop(cnt, mass, rows, caps, flow_order=False):
    """:func:`_pop_rows` on the row-major arrays ``cnt``/``mass``, through
    bucket-major copies that are written back into them.

    Returns ``(cells, take, take_mass, popped, before)`` like the row-major
    pop did, except that ``cells`` holds the row-major cell of each sending
    cell in the kernel's order, which is bucket by bucket (ascending
    bucket-major index) or, with ``flow_order``, ascending.
    """
    n, B = _n_rows(rows), cnt.shape[1]
    cnt_b = cnt.T.copy()
    mass_b = mass.T.copy()
    sc = _PopScratch(rows, n, B, cnt.shape[0], flow_order=flow_order)
    idx, tc, tm, popped, before = _pop_rows(cnt_b, mass_b, rows, caps, sc)
    if flow_order:
        assert (np.diff(idx % n * B + idx // n) > 0).all()
    else:
        assert (np.diff(idx) > 0).all()
    cnt[:] = cnt_b.T
    mass[:] = mass_b.T
    return idx % n * B + idx // n, tc, tm.copy(), popped, before.copy()


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
    idx, tc, tm, popped, before = _bm_pop(cnt, mass, rows, caps)
    take = _densify(idx, tc, cnt.shape)
    tm = _densify(idx, tm, cnt.shape)

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
    idx, tc, tm, _, _ = _bm_pop(cnt, mass, rows, caps)
    take = _densify(idx, tc, cnt.shape)
    tm = _densify(idx, tm, cnt.shape)

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


def _assert_same_pop(expected, got, state_e, state_g, mass_in) -> None:
    """A sparse pop ``got`` equals a dense pop ``expected`` bit for bit.

    ``expected`` is ``(take, take_mass, popped, before)`` over every cell,
    ``got`` the sparse ``(cells, take, take_mass, popped, before)`` of
    :func:`_bm_pop`; the ``state_*`` pairs are the ``(cnt, mass)`` arrays
    each pop mutated.  The sparse pop sends from exactly the cells where the
    dense take is positive, with the same bits; every other dense cell
    sends zero.  One difference is by design: a mass of -0.0 in the input
    may come out as -0.0 or +0.0 on either side (the dense split computes
    ``m - m * 0`` on a cell it does not pop, the sparse pop leaves the cell
    or normalises it while zeroing drained rows).  The engine never holds
    -0.0 (its zeros are written as +0.0, which
    :func:`test_engine_pops_never_see_negative_zero_mass` checks at every
    pop), so those cells are compared by value.
    """
    e_take, e_tm, e_popped, e_before = expected
    idx, tc, tm, popped, before = got
    sends = e_take > 0.0
    assert sorted(idx.tolist()) == np.flatnonzero(sends).tolist()
    assert _bits(e_take.reshape(-1)[idx]) == _bits(tc)
    assert _bits(e_tm.reshape(-1)[idx]) == _bits(tm)
    assert (e_take[~sends] == 0.0).all()
    assert (e_tm[~sends] == 0.0).all()
    assert _bits(e_popped) == _bits(popped)
    assert _bits(e_before) == _bits(before)
    (cnt_e, mass_e), (cnt_g, mass_g) = state_e, state_g
    assert _bits(cnt_e) == _bits(cnt_g)
    _assert_same_mass(mass_e, mass_g, mass_in)


def _assert_same_mass(mass_e, mass_g, mass_in) -> None:
    """Equal bits, except that a cell holding -0.0 in ``mass_in`` is
    compared by value (see :func:`_assert_same_pop`)."""
    negative_zero = (mass_in == 0.0) & np.signbit(mass_in)
    assert (mass_e[negative_zero] == 0.0).all()
    assert (mass_g[negative_zero] == 0.0).all()
    assert _bits(np.where(negative_zero, 0.0, mass_g)) == _bits(
        np.where(negative_zero, 0.0, mass_e)
    )


@given(pop_cases(), st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_pop_rows_is_bit_identical_to_allocating_kernel(
    case, as_slice, flow_order
) -> None:
    """Same bits as the allocating kernel (as :func:`_assert_same_pop`
    states them), whether the rows are an ascending run (a slice: in-place
    views) or scattered (an index array: gather, then scatter back), and
    in either cell order.  Untouched rows stay untouched."""
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
    got = _bm_pop(cnt_b, mass_b, rows, caps, flow_order)

    _assert_same_pop(
        expected, got, (cnt_a, mass_a), (cnt_b, mass_b), pad_m
    )


def _negative_zeros(a: np.ndarray) -> int:
    return int(np.count_nonzero(np.signbit(a) & (a == 0.0)))


def _degrade_dense_run() -> None:
    fig8_degrade_digest(backend="dense")


def _shuffle_dense_run() -> None:
    topology, plan, workload = build_world(16, 2)
    runtime = create_runtime(
        topology, plan, workload, WaspConfig(), backend="dense"
    )
    for _ in range(60):
        runtime.tick()


def _fuzz_dense_run() -> None:
    for seed in (0, 2):
        spec = _with_backend(generate_scenario(seed), "dense")
        run, dynamics = build_run(spec)
        run.run(spec.duration_s, dynamics)


@pytest.mark.parametrize(
    "drive",
    [_degrade_dense_run, _shuffle_dense_run, _fuzz_dense_run],
    ids=["fig8-degrade", "shuffle-16-p2", "fuzz-0-2"],
)
def test_engine_pops_never_see_negative_zero_mass(monkeypatch, drive) -> None:
    """No pop of a running dense engine meets a -0.0 mass anywhere in the
    arrays it pops from, so the one case in which the sparse pop differs
    from the dense one (see :func:`_assert_same_pop`) does not arise.

    Checked on the Degrade run (both drop paths), a 16-site shuffle with
    two tasks per site (fan-out fractions below 1) and two fuzz scenarios
    (chaos faults, adaptations, array/queue syncs)."""
    seen = {"pops": 0, "negative_zeros": 0, "drops": 0}

    def checked_pop(cnt, mass, rows, caps, sc):
        seen["pops"] += 1
        seen["negative_zeros"] += _negative_zeros(mass)
        return _pop_rows(cnt, mass, rows, caps, sc)

    def counted_drop(cnt, mass, rows, cutoff):
        dropped = _drop_older_rows(cnt, mass, rows, cutoff)
        seen["drops"] += int((dropped > 0.0).any())
        return dropped

    monkeypatch.setattr(dense_module, "_pop_rows", checked_pop)
    monkeypatch.setattr(dense_module, "_drop_older_rows", counted_drop)
    drive()
    assert seen["pops"] > 0
    assert seen["negative_zeros"] == 0
    if drive is _degrade_dense_run:
        assert seen["drops"] > 0


# --------------------------------------------------------------------------- #
# Oracles: the row-major sparse kernels and the dense kernels before them
# --------------------------------------------------------------------------- #


class _RowMajorPopScratch:
    """Preallocated ``(rows, B)`` buffers of one :func:`_rm_pop_rows` call
    site: the row-major engine's ``_PopScratch``, verbatim."""

    __slots__ = ("cum", "take", "sends", "c", "cells", "tm")

    def __init__(
        self, rows: slice | np.ndarray, n: int, B: int, dense_mass: bool = False
    ) -> None:
        self.cum = np.empty((n, B))
        self.take = np.empty((n, B))
        self.sends = np.empty((n, B), dtype=bool)
        if isinstance(rows, slice):
            self.c = self.cells = None
        else:
            self.c = np.empty((n, B))
            self.cells = (rows[:, None] * B + np.arange(B)).ravel()
        self.tm = np.empty((n, B)) if dense_mass else None


def _rm_pop_rows(cnt, mass, rows, caps, sc):
    """The row-major sparse pop, verbatim: it returns the sending cells in
    ``(row, bucket)`` order."""
    gathered = sc.c is not None
    if gathered:
        c = np.take(cnt, rows, axis=0, out=sc.c)
        cnt_f = cnt.reshape(-1)
        mass_f = mass.reshape(-1)
    else:
        c = cnt[rows]
        cnt_f = c.reshape(-1)
        mass_f = mass[rows].reshape(-1)
    cum = sc.cum
    np.cumsum(c[:, ::-1], axis=1, out=cum[:, ::-1])
    take = sc.take
    take_f = take.reshape(-1)
    np.copyto(take, caps[:, None])
    np.subtract(take_f[:-1], cum.reshape(-1)[1:], out=take_f[:-1])
    take[:, -1] = caps
    np.maximum(take, 0.0, out=take)
    np.minimum(take, c, out=take)
    np.greater(take, 0.0, out=sc.sends)
    idx = sc.sends.reshape(-1).nonzero()[0]
    cells = sc.cells[idx] if gathered else idx
    tc = take_f[idx]
    ci = cnt_f[cells]
    mi = mass_f[cells]
    tm = np.maximum(ci, 1e-300)
    np.divide(tc, tm, out=tm)
    np.multiply(mi, tm, out=tm)
    cnt_f[cells] = np.subtract(ci, tc, out=ci)
    mass_f[cells] = np.subtract(mi, tm, out=mi)
    if sc.tm is not None:
        sc.tm.fill(0.0)
        sc.tm.reshape(-1)[idx] = tm
    before = cum[:, 0]
    popped = np.minimum(caps, before)
    drained = (before - popped < _DRAIN_EPS).nonzero()[0]
    if drained.size:
        if gathered:
            drained = rows[drained]
            cnt[drained] = 0.0
            mass[drained] = 0.0
        else:
            c[drained] = 0.0
            mass[rows][drained] = 0.0
    return idx, tc, tm, popped, before


def _rm_fan_out(g, lo, hi, in_cnt, in_mass, net_cnt, net_mass):
    """The row-major span-limited fan-out, verbatim, over the row-major
    tables of :func:`_row_major_group`."""
    n = g.n_rows
    w = hi - lo
    if not w:
        return
    out_c = np.multiply(
        g.pop.take[:, lo:hi], g.sel_col, out=g.out_c[: n * w].reshape(n, w)
    )
    out_m = np.multiply(
        g.pop.tm[:, lo:hi], g.sel_col, out=g.out_m[: n * w].reshape(n, w)
    )
    if g.loc_src is not None:
        in_cnt_f = in_cnt.reshape(-1)
        in_mass_f = in_mass.reshape(-1)
        cells = g.loc_cells[:, lo:hi].ravel()
        in_cnt_f += np.bincount(
            cells,
            weights=(out_c[g.loc_src] * g.loc_frac).ravel(),
            minlength=in_cnt_f.shape[0],
        )
        in_mass_f += np.bincount(
            cells,
            weights=(out_m[g.loc_src] * g.loc_frac).ravel(),
            minlength=in_mass_f.shape[0],
        )
    if g.rem_src is not None:
        k = len(g.rem_src)
        rc = g.rem_c[: k * w].reshape(k, w)
        rm = g.rem_m[: k * w].reshape(k, w)
        np.take(out_c, g.rem_src, axis=0, out=rc)
        np.take(out_m, g.rem_src, axis=0, out=rm)
        net_cnt[g.rem_rows, lo:hi] += np.multiply(rc, g.rem_frac, out=rc)
        net_mass[g.rem_rows, lo:hi] += np.multiply(rm, g.rem_frac, out=rm)


def _rm_bucket_span(sends: np.ndarray) -> tuple[int, int]:
    """The bucket columns ``lo:hi`` in which any row of the ``(rows, B)``
    mask ``sends`` is set; ``(0, 0)`` when none is (row-major, verbatim)."""
    cols = sends.any(axis=0).nonzero()[0]
    if not cols.size:
        return 0, 0
    return int(cols[0]), int(cols[-1]) + 1


def _rm_roll_into(cur: np.ndarray, nxt: np.ndarray) -> None:
    """The row-major roll, verbatim: one flat copy plus two column
    fix-ups."""
    B = cur.shape[1]
    nxt.reshape(-1)[1:] = cur.reshape(-1)[:-1]
    nxt[:, 0] = 0.0
    np.add(cur[:, B - 1], cur[:, B - 2], out=nxt[:, B - 1])


class _DensePopScratch:
    """Preallocated ``(rows, B)`` buffers of one :func:`_pop_rows` call
    site, reused every tick so the kernel allocates no large temporaries.
    ``c``/``m`` hold the gathered rows when the selector is an index array.
    """

    __slots__ = ("cum", "take_c", "take_m", "c", "m")

    def __init__(self, rows: slice | np.ndarray, n: int, B: int) -> None:
        self.cum = np.empty((n, B))
        self.take_c = np.empty((n, B))
        self.take_m = np.empty((n, B))
        gather = not isinstance(rows, slice)
        self.c = np.empty((n, B)) if gather else None
        self.m = np.empty((n, B)) if gather else None


def _dense_pop_rows(
    cnt: np.ndarray,
    mass: np.ndarray,
    rows: slice | np.ndarray,
    caps: np.ndarray,
    sc: _DensePopScratch,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """FIFO-pop up to ``caps[i]`` events from each row, oldest bucket first.

    Mutates ``cnt``/``mass`` in place and returns ``(take_cnt, take_mass,
    popped_totals, totals_before)``; the first two and the last are views
    into ``sc``, valid until the same call site runs again.
    Fully-consumed buckets transfer their exact mass (``c/c == 1.0`` in
    IEEE arithmetic leaves a remainder of exactly 0); partially-consumed
    buckets split mass proportionally, i.e. at the bucket's mean generation
    time.
    """
    gathered = sc.c is not None
    if gathered:
        c = np.take(cnt, rows, axis=0, out=sc.c)
        m = np.take(mass, rows, axis=0, out=sc.m)
    else:
        c = cnt[rows]
        m = mass[rows]
    # cum[:, b]: events in bucket b and every older one, summed oldest
    # first (a cumsum over the reversed row, written back reversed).
    cum = sc.cum
    np.cumsum(c[:, ::-1], axis=1, out=cum[:, ::-1])
    # take[:, b] = min(max(cap - events older than b, 0), c[:, b]).
    take = sc.take_c
    np.subtract(caps[:, None], cum[:, 1:], out=take[:, :-1])
    take[:, -1] = caps
    np.maximum(take, 0.0, out=take)
    np.minimum(take, c, out=take)
    tm = sc.take_m
    np.maximum(c, 1e-300, out=tm)
    np.divide(take, tm, out=tm)
    np.multiply(m, tm, out=tm)
    np.subtract(c, take, out=c)
    np.subtract(m, tm, out=m)
    before = cum[:, 0]
    popped = np.minimum(caps, before)
    drained = before - popped < _DRAIN_EPS
    if drained.any():
        c[drained] = 0.0
        m[drained] = 0.0
    if gathered:
        cnt[rows] = c
        mass[rows] = m
    return take, tm, popped, before


def _dense_deliver(in_cnt_f, in_mass_f, take_c, take_m, lat_s, dst_flat, cum):
    """The WAN pass's scatter of every cell of a dense pop (``lat_s`` is
    the per-flow latency column, ``cum`` the pop's spent cum buffer)."""
    in_size = in_cnt_f.shape[0]
    # Aging by link latency: the destination mass is
    # sum(c * (gen - latency)); the bucket shift in dst_flat
    # is the rounded equivalent for ordering purposes.  The
    # pop's cum buffer is free again and holds the product.
    take_m -= np.multiply(lat_s, take_c, out=cum)
    in_cnt_f += np.bincount(
        dst_flat, weights=take_c.ravel(), minlength=in_size
    )
    in_mass_f += np.bincount(
        dst_flat, weights=take_m.ravel(), minlength=in_size
    )


def _pop_case(rng: np.random.Generator, n: int, B: int):
    """Rows of every kind the pop meets, with caps that drain, split a
    bucket, stop on a bucket boundary or are zero.  Generation times run
    negative too, so some masses are negative."""
    cnt = rng.exponential(50.0, size=(n, B))
    kind = rng.integers(0, 4, size=n)
    cnt[kind == 0] = 0.0  # empty rows
    sparse = kind == 1
    cnt[sparse] *= rng.random((int(sparse.sum()), B)) < 0.2
    gen = rng.uniform(-50.0, 200.0, size=(n, B))
    mass = cnt * gen
    total = cnt.sum(axis=1)
    # Events older than each bucket boundary, oldest first.
    older = np.cumsum(cnt[:, ::-1], axis=1)[:, ::-1]
    boundary = older[np.arange(n), rng.integers(0, B, size=n)]
    cap_kind = rng.integers(0, 4, size=n)
    caps = np.select(
        [cap_kind == 0, cap_kind == 1, cap_kind == 2],
        [np.zeros(n), total * 1.5 + 1.0, boundary],
        total * rng.random(n),
    )
    return cnt, mass, caps


@pytest.mark.parametrize("B", [4, 16, 32])
@pytest.mark.parametrize("as_slice", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_sparse_pop_and_deliver_match_dense_kernel(
    B: int, as_slice: bool, seed: int
) -> None:
    """The bucket-major pop and its scatter against the row-major sparse
    kernels and the dense kernel and scatter before them, on random arrays:
    the same ``cnt``, ``mass``, sent cells, ``popped`` and ``before``, and
    the same destination arrays.

    Seeds 0 and 1 pop 48 rows (one accumulate, a boolean write of drained
    rows), seeds 2 and 3 pop 300 (row adds, a mask multiply).  Even seeds
    draw latencies of 0-3.5 s, so flows land up to four buckets later and
    the pass pops in flow order, as a compiled pass with a shifted flow
    does; odd seeds stay under 0.5 s and pop bucket by bucket."""
    rng = np.random.default_rng(1000 * B + seed)
    n = 48 if seed < 2 else 300
    assert (n >= dense_module._LONG_POP_ROWS) == (seed >= 2)
    cnt0, mass0, caps = _pop_case(rng, n, B)
    pad_c = rng.exponential(5.0, size=(2 * n + 1, B))
    pad_m = pad_c * 100.0
    ids = list(range(1, n + 1)) if as_slice else list(range(2 * n - 1, 0, -2))
    pad_c[ids] = cnt0
    pad_m[ids] = mass0
    rows = slice(1, n + 1) if as_slice else np.array(ids, dtype=np.intp)
    # Destinations: any input row, shifted by a per-flow bucket latency.
    n_in = 20
    in_c0 = rng.exponential(9.0, size=(n_in, B))
    in_m0 = in_c0 * rng.uniform(0.0, 300.0, size=(n_in, B))
    lat = rng.uniform(0.0, 3.5 if seed % 2 == 0 else 0.49, size=n)
    shift = np.floor(lat + 0.5).astype(np.intp)
    flow_order = bool(shift.any())
    assert flow_order == (seed % 2 == 0)
    dst_rows = rng.integers(0, n_in, size=n)
    shifted = np.minimum(np.arange(B)[:, None] + shift, B - 1)  # (B, n)
    dst_flat = (dst_rows[:, None] * B + shifted.T).ravel()
    dst_flat_bm = (shifted * n_in + dst_rows).ravel()

    cnt_e, mass_e = pad_c.copy(), pad_m.copy()
    dense_sc = _DensePopScratch(rows, n, B)
    expected = _dense_pop_rows(cnt_e, mass_e, rows, caps.copy(), dense_sc)
    expected = tuple(a.copy() for a in expected)
    in_ce, in_me = in_c0.copy(), in_m0.copy()
    _dense_deliver(
        in_ce.reshape(-1), in_me.reshape(-1), expected[0].copy(),
        expected[1].copy(), lat[:, None], dst_flat, dense_sc.cum,
    )

    # The row-major sparse kernels: the same pop, and the scatter in
    # (row, bucket) order over row-major destination cells.
    cnt_r, mass_r = pad_c.copy(), pad_m.copy()
    r_idx, r_tc, r_tm, r_popped, r_before = _rm_pop_rows(
        cnt_r, mass_r, rows, caps.copy(), _RowMajorPopScratch(rows, n, B)
    )
    in_cr, in_mr = in_c0.copy(), in_m0.copy()
    _deliver(
        in_cr.reshape(-1), in_mr.reshape(-1), r_idx, r_tc, r_tm.copy(),
        np.repeat(lat, B), dst_flat,
    )

    cnt_g, mass_g = pad_c.copy(), pad_m.copy()
    caps_g = caps.copy()
    got = _bm_pop(cnt_g, mass_g, rows, caps_g, flow_order)
    _assert_same_pop(expected, got, (cnt_e, mass_e), (cnt_g, mass_g), pad_m)
    assert _bits(caps_g) == _bits(caps)
    cells, tc, tm = got[:3]
    order = np.argsort(cells)
    assert cells[order].tolist() == r_idx.tolist()
    assert _bits(tc[order]) == _bits(r_tc)
    assert _bits(tm[order]) == _bits(r_tm)
    assert _bits(got[3]) == _bits(r_popped)
    assert _bits(got[4]) == _bits(r_before)
    assert _bits(cnt_g) == _bits(cnt_r)
    _assert_same_mass(mass_r, mass_g, pad_m)

    # The bucket-major scatter, over bucket-major destination arrays.
    in_cg, in_mg = in_c0.T.copy(), in_m0.T.copy()
    idx = cells % B * n + cells // B  # back to bucket-major selection cells
    _deliver(
        in_cg.reshape(-1), in_mg.reshape(-1), idx, tc, tm,
        np.tile(lat, B), dst_flat_bm,
    )
    for bm, rm, dense in ((in_cg, in_cr, in_ce), (in_mg, in_mr, in_me)):
        assert _bits(bm.T) == _bits(rm)
        assert _bits(bm.T) == _bits(dense)

    # Every case the kernels must agree on occurs here.
    take, before, popped = expected[0], expected[3], expected[2]
    left = before - popped
    assert ((before == 0.0)).any()  # empty rows
    assert ((caps == 0.0) & (before > 0.0)).any()  # zero caps
    assert ((before > 0.0) & (left < _DRAIN_EPS)).any()  # drained rows
    assert (left >= _DRAIN_EPS).any()  # partial rows
    c_in = pad_c[ids]
    assert ((take > 0.0) & (take < c_in)).any()  # split buckets
    assert ((take > 0.0) & (pad_m[ids] < 0.0)).any()  # negative masses
    assert (np.count_nonzero(take, axis=1) > 1).any()  # multi-bucket pops


def _column_roll(cur: np.ndarray, nxt: np.ndarray) -> None:
    """The roll as per-column copies."""
    B = cur.shape[1]
    nxt[:, 0] = 0.0
    nxt[:, 1 : B - 1] = cur[:, 0 : B - 2]
    nxt[:, B - 1] = cur[:, B - 1] + cur[:, B - 2]


@pytest.mark.parametrize("B", [4, 16])
@pytest.mark.parametrize("n", [0, 1, 37])
def test_one_copy_roll_matches_column_roll(B: int, n: int) -> None:
    """The bucket-major roll against the row-major one-copy roll and the
    column roll before it."""
    rng = np.random.default_rng(B + n)
    cur = rng.exponential(3.0, size=(n, B))
    cur[rng.random(cur.shape) < 0.3] = 0.0
    before = cur.copy()
    expected = np.full((n, B), np.nan)
    row_major = np.full((n, B), np.nan)
    _column_roll(cur, expected)
    _rm_roll_into(cur, row_major)
    cur_b = cur.T.copy()
    got = np.full((B, n), np.nan)
    _roll_into(cur_b, got)
    assert _bits(got.T) == _bits(expected)
    assert _bits(row_major) == _bits(expected)
    assert _bits(cur_b.T) == _bits(before)


def _full_width_fan_out(g, take_c, take_m, in_cnt, in_mass, net_cnt, net_mass):
    """The group fan-out over every bucket column, as a tick ran it before
    routing was limited to the popped span (row-major tables)."""
    in_cnt_f = in_cnt.reshape(-1)
    in_mass_f = in_mass.reshape(-1)
    in_size = in_cnt_f.shape[0]
    # Fan-out for the whole group at once: rows belonging
    # to sinks or sel == 0 stages contribute exact zeros.
    out_c = np.multiply(take_c, g.sel_col)
    out_m = np.multiply(take_m, g.sel_col)
    if g.loc_src is not None:
        loc_flat = g.loc_cells.ravel()
        in_cnt_f += np.bincount(
            loc_flat,
            weights=(out_c[g.loc_src] * g.loc_frac).ravel(),
            minlength=in_size,
        )
        in_mass_f += np.bincount(
            loc_flat,
            weights=(out_m[g.loc_src] * g.loc_frac).ravel(),
            minlength=in_size,
        )
    if g.rem_src is not None:
        rc = np.take(out_c, g.rem_src, axis=0)
        rm = np.take(out_m, g.rem_src, axis=0)
        net_cnt[g.rem_rows] += np.multiply(rc, g.rem_frac, out=rc)
        net_mass[g.rem_rows] += np.multiply(rm, g.rem_frac, out=rm)


def _row_major_group(g, B: int):
    """The row-major routing tables of the compiled group ``g``, as the
    row-major model compiled them, and its popped take (``g.pop.take`` and
    ``g.pop.tm`` transposed)."""
    n = g.n_rows
    rm = SimpleNamespace(
        n_rows=n,
        sel_col=g.sel[:, None],
        loc_src=g.loc_src,
        rem_src=g.rem_src,
        rem_rows=g.rem_rows,
        out_c=np.empty(n * B),
        out_m=np.empty(n * B),
        pop=SimpleNamespace(take=g.pop.take.T.copy(), tm=g.pop.tm.T.copy()),
    )
    if g.loc_src is not None:
        rm.loc_frac = g.loc_frac[:, None]
        # Bucket 0 of the bucket-major cells holds the destination rows.
        rm.loc_cells = g.loc_cells[0][:, None] * B + np.arange(B)
    if g.rem_src is not None:
        rm.rem_frac = g.rem_frac[:, None]
        rm.rem_c = np.empty(len(g.rem_src) * B)
        rm.rem_m = np.empty(len(g.rem_src) * B)
    return rm


def _fan_out_group(held: bool):
    """A compiled dense model of the 6-site shuffle with two aggregation
    tasks per site; with ``held`` the sink has no task, so the aggregation
    group is held back."""
    topology, plan, workload = build_world(6, 2, 3)
    if held:
        plan.stage("sink").remove_task_at("s000")
    runtime = create_runtime(
        topology, plan, workload, WaspConfig(), backend="dense"
    )
    return runtime._ensure_model()


@pytest.mark.parametrize("held", [False, True])
@pytest.mark.parametrize(
    "cols, span",
    [((0, -1), None), ((), (0, 0)), ((2, 4), (2, 5))],
    ids=["first-and-last", "nothing", "middle"],
)
def test_fan_out_span_matches_full_width(held, cols, span) -> None:
    """Routing over the popped bucket span leaves every input and flow row
    as the full-width fan-out did, and as the row-major span-limited
    fan-out did: a group popping only buckets 0 and B - 1, one popping
    nothing, and one popping only middle buckets.  A held group (its
    downstream stage has no task) runs no task and routes nothing."""
    model = _fan_out_group(held)
    B = model.B
    g = model.groups[1 if held else 0]
    # The sources route locally and remotely; the sinkless aggregation
    # has no target and no running task, so its rows' capacity is 0.0.
    assert (g.loc_src is None) == held
    assert (g.rem_src is None) == held
    assert (not g.n_tasks.any()) == held
    rng = np.random.default_rng(len(cols))
    take = np.zeros((g.n_rows, B))
    for b in cols:
        take[:, b] = rng.exponential(10.0, size=g.n_rows)
    g.pop.take[:] = take.T
    g.pop.tm[:] = take.T * rng.uniform(50.0, 60.0, size=(B, g.n_rows))
    idx = np.flatnonzero(g.pop.take > 0.0)
    lo, hi = _bucket_span(idx, g.n_rows)
    if span is None:
        span = (0, B)
    assert (lo, hi) == span
    assert _rm_bucket_span(take > 0.0) == span

    state = [
        rng.exponential(4.0, size=(model.n_in, B)),
        rng.exponential(400.0, size=(model.n_in, B)),
        rng.exponential(4.0, size=(model.n_net, B)),
        rng.exponential(400.0, size=(model.n_net, B)),
    ]
    rm_g = _row_major_group(g, B)
    full = [a.copy() for a in state]
    _full_width_fan_out(rm_g, take, rm_g.pop.tm.copy(), *full)
    row_major = [a.copy() for a in state]
    _rm_fan_out(rm_g, lo, hi, *row_major)
    spanned = [a.T.copy() for a in state]
    _fan_out(g, lo, hi, *spanned)
    for f, r, s_ in zip(full, row_major, spanned):
        assert _bits(f) == _bits(s_.T)
        assert _bits(f) == _bits(r)
    if held:
        assert all(_bits(f) == _bits(a) for f, a in zip(full, state))
    elif cols:
        # The fan-out did route something.
        assert any(_bits(f) != _bits(a) for f, a in zip(full, state))


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
# Flow tables against the report dicts they replaced
# --------------------------------------------------------------------------- #

#: A report is read again this many ticks after it was handed over.
KEEP_TICKS = 5


def _dict_fills(model, pops: dict, net_cnt: np.ndarray) -> tuple[dict, dict]:
    """``net_sent`` and ``net_backlog`` as the tick filled them as dicts,
    from one tick's WAN pops (``id(scratch) -> (moved, before)``) and its
    end-of-tick net counts.  The two fills are kept verbatim."""
    net_sent: dict = {}
    for g in model.groups:
        for ps in g.passes:
            moved, before = pops[id(ps.pop)]
            nonempty = before > 0.0
            if not nonempty.any():
                continue
            # Each flow key appears in exactly one pass, so a plain
            # assignment per key accumulates correctly across the tick.
            mv_list = moved.tolist()
            if (moved > 0.0).all():
                net_sent.update(zip(ps.flow_keys, mv_list))
            else:
                net_sent.update(
                    (key, mv)
                    for key, mv in zip(ps.flow_keys, mv_list)
                    if mv > 0.0
                )
    net_backlog: dict = {}
    # The row sums of the row-major (flows, B) array.
    net_tot = np.ascontiguousarray(net_cnt.T).sum(axis=1)
    nz = np.flatnonzero(net_tot > 0.0)
    if nz.size:
        net_backlog.update(
            zip(model.net_keys[nz].tolist(), net_tot[nz].tolist())
        )
    return net_sent, net_backlog


@pytest.mark.parametrize("kind", ["exponential", "mixed-magnitudes"])
def test_row_totals_sum_like_numpy_row_sums(kind) -> None:
    """The bucket-major row totals equal numpy's ``(rows, 16).sum(axis=1)``
    on the row-major array bit for bit, at every row count from 1 to 299
    and at the 64-site shuffle's 4032 and 4095 flows.  A numpy that sums a
    16-wide row in another order fails here, not in a digest."""
    rng = np.random.default_rng(len(kind))
    assert dense_module.AGE_BUCKETS == 16
    for n in [*range(1, 300), 4032, 4095]:
        if kind == "exponential":
            a = rng.exponential(50.0, size=(n, 16))
        else:
            a = rng.exponential(1.0, size=(n, 16)) * 10.0 ** rng.integers(
                -12, 13, size=(n, 16)
            )
            a[rng.random((n, 16)) < 0.3] = 0.0
            a[rng.random((n, 16)) < 0.2] *= -1.0
        assert _bits(_row_totals(a.T.copy())) == _bits(a.sum(axis=1)), n


@pytest.mark.parametrize("buckets", [4, 8, 15, 17, 32])
def test_row_totals_reject_other_bucket_counts(buckets) -> None:
    """The fold is written for 16 buckets; any other count raises rather
    than returning partial sums."""
    with pytest.raises(ValueError, match="16 buckets"):
        _row_totals(np.ones((buckets, 5)))


def _readings(report) -> list:
    """What a reader gets from the two flow fields, floats as bit
    patterns: ``items()``, ``values()``, iteration, ``len`` and lookup."""
    out = []
    for table in (report.net_sent, report.net_backlog):
        out.append([(k, v.hex()) for k, v in table.items()])
        out.append([v.hex() for v in table.values()])
        out.append(list(table))
        out.append(len(table))
        out.append({k: table[k].hex() for k in table})
    return out


class _FlowTableOracle:
    """Checks every dense tick's flow tables against the dict fills, and
    each report again :data:`KEEP_TICKS` ticks later."""

    def __init__(self, monkeypatch) -> None:
        self.pops: dict = {}
        self.kept: deque = deque()
        self.ticks = self.rechecked = self.sent = self.backlog = 0
        original = DenseEngineRuntime.tick

        def pop(cnt, mass, rows, caps, sc):
            out = _pop_rows(cnt, mass, rows, caps, sc)
            self.pops[id(sc)] = (out[3].copy(), out[4].copy())
            return out

        def tick(runtime, *args, **kwargs):
            self.pops = {}
            report = original(runtime, *args, **kwargs)
            self.check(runtime, report)
            return report

        monkeypatch.setattr(dense_module, "_pop_rows", pop)
        monkeypatch.setattr(DenseEngineRuntime, "tick", tick)

    def check(self, runtime, report) -> None:
        assert isinstance(report.net_sent, FlowTable)
        assert isinstance(report.net_backlog, FlowTable)
        net_sent, net_backlog = _dict_fills(
            runtime._model, self.pops, runtime._net_cnt
        )
        expected = _readings(
            dataclasses.replace(
                report, net_sent=net_sent, net_backlog=net_backlog
            )
        )
        assert _readings(report) == expected
        self.ticks += 1
        self.sent += len(net_sent)
        self.backlog += len(net_backlog)
        self.kept.append((report, expected))
        if len(self.kept) > KEEP_TICKS:
            kept, kept_expected = self.kept.popleft()
            assert _readings(kept) == kept_expected
            self.rechecked += 1


def _shuffle_run(sites: int, tasks_per_site: int):
    def drive() -> None:
        topology, plan, workload = build_world(sites, tasks_per_site)
        runtime = create_runtime(
            topology, plan, workload, WaspConfig(), backend="dense"
        )
        for _ in range(100):
            runtime.tick()

    return drive


def _fuzz_runs(*seeds: int):
    """Dense fuzz scenarios with WAN backlogs and adaptations (model
    recompiles mid-run)."""

    def drive() -> None:
        for seed in seeds:
            spec = _with_backend(generate_scenario(seed), "dense")
            run, dynamics = build_run(spec)
            run.run(spec.duration_s, dynamics)

    return drive


@pytest.mark.parametrize(
    "drive",
    [
        _shuffle_run(16, 1),
        _shuffle_run(32, 2),
        _shuffle_run(64, 1),
        _degrade_dense_run,
        _fuzz_runs(7, 19),
    ],
    ids=[
        "shuffle-16", "shuffle-32-p2", "shuffle-64", "fig8-degrade",
        "fuzz-7-19",
    ],
)
def test_flow_tables_match_dict_fills(monkeypatch, drive) -> None:
    """Every tick's ``net_sent`` and ``net_backlog`` read exactly as the
    dicts the tick filled before: the same entries in the same order, bit
    for bit, through every read path; and a report kept across
    :data:`KEEP_TICKS` later ticks still reads the same."""
    oracle = _FlowTableOracle(monkeypatch)
    drive()
    assert oracle.ticks > KEEP_TICKS
    assert oracle.rechecked == oracle.ticks - KEEP_TICKS
    assert oracle.sent > 0
    assert oracle.backlog > 0


def test_flow_table_is_a_read_only_mapping() -> None:
    keys = np.fromiter([("a",), ("b",), ("c",)], dtype=object, count=3)
    table = FlowTable(keys, np.array([2.0, 0.0, 0.5]))
    assert dict(table) == {("a",): 2.0, ("c",): 0.5}
    assert table == {("a",): 2.0, ("c",): 0.5}
    assert ("b",) not in table
    assert table.get(("b",)) is None
    assert list(table.keys()) == [("a",), ("c",)]
    with pytest.raises(TypeError):
        table[("a",)] = 1.0  # type: ignore[index]


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
