"""Figure-shape checks for the paper-eval sweep.

These re-state the assertions of the Figure 8, 10, 11 and 13 regeneration
suites under ``benchmarks/``: the *shape* the paper reports (who wins, in
which direction), never absolute numbers.  Each check returns the list of
expectations that failed, so an empty list means the figure holds.
"""

from __future__ import annotations

import numpy as np

from repro.core.actions import ActionKind
from repro.experiments.figures import segment_mean

#: Constrained and baseline tick ranges of the Section 8.4 timeline.
FIG8_STRESSED = ((400, 600), (1000, 1200))
FIG8_BASELINE = (100, 300)


class _Expectations:
    def __init__(self) -> None:
        self.failed: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed.append(what)


def _delay(run, lo: int, hi: int) -> float:
    return segment_mean(run.recorder.delay_series(), lo, hi)


def fig8(runs: dict) -> list[str]:
    """No Adapt degrades, Degrade holds its SLO, WASP stays near baseline."""
    expect = _Expectations()
    wasp, static, degrade = runs["WASP"], runs["No Adapt"], runs["Degrade"]
    baseline = _delay(wasp, *FIG8_BASELINE)
    for lo, hi in FIG8_STRESSED:
        expect(
            _delay(wasp, lo, hi) < max(4 * baseline, 2.0),
            f"WASP near baseline in ticks {lo}-{hi}",
        )
        expect(_delay(degrade, lo, hi) < 10.5, f"Degrade SLO in {lo}-{hi}")
    worst_static = max(_delay(static, lo, hi) for lo, hi in FIG8_STRESSED)
    expect(worst_static > 5 * baseline, "No Adapt degrades >= 5x")
    expect(wasp.recorder.processed_fraction() == 1.0, "WASP drops nothing")
    expect(
        static.recorder.processed_fraction() == 1.0, "No Adapt drops nothing"
    )
    expect(degrade.recorder.processed_fraction() < 1.0, "Degrade drops")
    return expect.failed


def fig10(runs: dict) -> list[str]:
    """Every technique beats No Adapt; Scale wins and scales back down."""
    expect = _Expectations()
    mean = {name: run.recorder.mean_delay() for name, run in runs.items()}
    p50 = {name: run.recorder.delay_percentile(50) for name, run in runs.items()}
    for name in ("Re-assign", "Scale", "Re-plan"):
        expect(mean[name] < mean["No Adapt"], f"{name} beats No Adapt")
    expect(mean["Scale"] < mean["Re-assign"], "Scale beats Re-assign")
    expect(mean["Scale"] < mean["Re-plan"], "Scale beats Re-plan")
    expect(p50["Scale"] <= p50["Re-assign"], "Scale p50 <= Re-assign p50")
    scale = runs["Scale"]
    extra = scale.recorder.extra_slots_series()
    expect(max(extra) >= 1, "Scale acquires extra slots")
    expect(extra[-1] < max(extra), "Scale releases slots")
    kinds = [r.kind for r in scale.manager.history]
    expect(ActionKind.SCALE_DOWN in kinds, "Scale scales down")
    for name in ("Re-assign", "Re-plan"):
        expect(
            max(runs[name].recorder.extra_slots_series()) == 0,
            f"{name} keeps its parallelism",
        )
    expect(
        runs["Re-plan"].recorder.delay_percentile(99)
        > scale.recorder.delay_percentile(99),
        "Re-plan tail above Scale's",
    )
    return expect.failed


def fig11(runs: dict) -> list[str]:
    """WASP stays near baseline, recovers by scaling, then scales down."""
    expect = _Expectations()
    wasp = runs["WASP"]
    delay = wasp.recorder.delay_series()
    baseline = segment_mean(delay, 100, 500)
    finite = delay[~np.isnan(delay)]
    near = float(np.mean(finite < max(3 * baseline, 3.0)))
    expect(near > 0.8, "WASP near baseline most of the run")
    expect(
        segment_mean(delay, 900, 1100) < max(3 * baseline, 3.0),
        "WASP recovers after the failure",
    )
    kinds = set(r.kind for r in wasp.manager.history)
    expect(
        bool({ActionKind.SCALE_OUT, ActionKind.SCALE_UP} & kinds),
        "WASP recovers by scaling",
    )
    expect(ActionKind.SCALE_DOWN in kinds, "WASP scales down")
    static_delay = runs["No Adapt"].recorder.delay_series()
    expect(
        segment_mean(static_delay, 700, 1000)
        > 5 * segment_mean(delay, 700, 1000),
        "No Adapt suffers after the failure",
    )
    expect(
        runs["Degrade"].recorder.processed_fraction() < 1.0, "Degrade drops"
    )
    expect(wasp.recorder.processed_fraction() == 1.0, "WASP drops nothing")
    return expect.failed


def fig13(breakdowns: dict, state_mb: float) -> list[str]:
    """Network-aware migration beats Random and Distant; None loses state."""
    expect = _Expectations()
    none, wasp = breakdowns["WASP/none"], breakdowns["WASP"]
    random_, distant = breakdowns["WASP/random"], breakdowns["WASP/distant"]
    expect(none.transition_s < 5.0, "No Migrate is near instant")
    expect(none.state_lost_mb == state_mb, "No Migrate loses the state")
    expect(wasp.state_lost_mb == 0.0, "WASP keeps the state")
    expect(wasp.total_s < random_.total_s, "WASP beats Random")
    expect(wasp.total_s < 0.8 * distant.total_s, "WASP beats Distant by 20%")
    expect(distant.total_s >= random_.total_s, "Distant is the worst")
    expect(wasp.p95_delay_s < distant.p95_delay_s, "WASP p95 below Distant")
    return expect.failed
