#!/usr/bin/env python
"""Reproduce the Section 8.6 live-environment experiment in miniature.

Random bandwidth variation (factor 0.51-2.36), random workload variation
(factor 0.8-2.4), and a total failure at t=540 that revokes every computing
slot for 60 seconds.  Compares WASP against No Adapt and Degrade on the
stateful Top-K query, printing the quality/latency trade-off of Figure 12.

Run:  python examples/live_environment.py
"""

import numpy as np

from repro.experiments.figures import fig11_report, fig12_report
from repro.experiments.scenarios import fig11_scenario, run_variants


def main() -> None:
    scenario = fig11_scenario()
    print(
        "live environment: random bandwidth/workload variation, total "
        "failure at t=540 for 60s\n"
    )
    runs = run_variants(scenario, seed=42)
    print(fig11_report(runs))
    print()
    print(fig12_report(runs))
    print()

    wasp_run = runs["WASP"]
    delay = wasp_run.recorder.delay_series()
    post_failure = delay[640:900]
    post_failure = post_failure[~np.isnan(post_failure)]
    print(
        "WASP recovery: mean delay in the 5 minutes after the failure was "
        f"{float(np.mean(post_failure)):.2f}s; adaptations taken:"
    )
    for record in wasp_run.manager.history:
        print(f"  t={record.t_s:6.0f}s {record.kind.value:11s} {record.stage}")


if __name__ == "__main__":
    main()
