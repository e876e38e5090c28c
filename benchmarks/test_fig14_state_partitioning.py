"""Figure 14: mitigating adaptation overhead through state partitioning.

State size sweeps {0, 32, 64, 128, 256, 512} MB with t_max = 30 s.
Paper: Default's overhead grows with the state size, while Partitioned
scales the operator out so each |state|/p' slice crosses a different link,
cutting the overhead by >120 s (and the delay by ~42 s) at large sizes.
"""

from repro.experiments.figures import fig14_report
from repro.experiments.scenarios import fig14_rows


def test_fig14_state_partitioning(bench_once):
    rows = bench_once(fig14_rows)
    print()
    print(fig14_report(rows))

    default = {size: b for mode, size, b in rows if mode == "Default"}
    partitioned = {size: b for mode, size, b in rows if mode == "Partitioned"}

    # Default's transition grows (roughly linearly) with the state size.
    assert default[512.0].transition_s > default[128.0].transition_s
    assert default[128.0].transition_s > default[32.0].transition_s

    # Partitioning pays off for large state (paper: 256 and 512 MB).
    for size in (256.0, 512.0):
        assert partitioned[size].transition_s < (
            0.75 * default[size].transition_s
        )
        assert partitioned[size].p95_delay_s < default[size].p95_delay_s

    # The paper reports > 120 s overhead reduction at the largest size.
    saved = default[512.0].transition_s - partitioned[512.0].transition_s
    assert saved > 120.0

    # Small states are not worth partitioning - behaviour matches Default.
    assert partitioned[0.0].transition_s == default[0.0].transition_s
