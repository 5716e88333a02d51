"""Figure 2: invalid IPS readings vs the data-validation safeguard."""

from conftest import run_and_print

from repro.experiments import run_artifact


def test_fig2_invalid_data(benchmark):
    result = run_and_print(
        benchmark, run_artifact, "fig2", seconds=600,
        bad_fractions=(0.0, 0.05, 0.10, 0.20),
    )
    cells = {
        (row["bad_fraction"], row["validation"]): row for row in result.rows
    }
    # Paper shape: with validation the workload stays near optimal even
    # at 5%+ bad data; without it, performance degrades.
    assert cells[(0.05, "on")]["norm_perf"] > cells[(0.05, "off")]["norm_perf"]
    assert cells[(0.20, "on")]["norm_perf"] > cells[(0.20, "off")]["norm_perf"]
    assert cells[(0.05, "on")]["norm_perf"] > 0.90
