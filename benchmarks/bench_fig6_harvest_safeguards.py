"""Figure 6: SmartHarvest safeguards (three panels)."""

from conftest import run_and_print

from repro.experiments import run_artifact


def test_fig6_left_invalid_data(benchmark):
    result = run_and_print(
        benchmark, run_artifact, "fig6-left", seconds=240,
    )
    cells = {
        (row["workload"], row["safeguards"]): row for row in result.rows
    }
    for workload in ("image-dnn", "moses"):
        guarded = cells[(workload, "on")]["p99_increase_pct"]
        unguarded = cells[(workload, "off")]["p99_increase_pct"]
        # Paper shape: ~40% unguarded vs <10% guarded.
        assert guarded < 10.0
        assert unguarded > 20.0


def test_fig6_middle_broken_model(benchmark):
    result = run_and_print(
        benchmark, run_artifact, "fig6-middle", seconds=240,
    )
    cells = {
        (row["workload"], row["safeguards"]): row for row in result.rows
    }
    for workload in ("image-dnn", "moses"):
        guarded = cells[(workload, "on")]["p99_increase_pct"]
        unguarded = cells[(workload, "off")]["p99_increase_pct"]
        # Paper shape: safeguards reduce the impact ~4x.
        assert unguarded > 2 * max(guarded, 1.0)


def test_fig6_right_delayed_predictions(benchmark):
    result = run_and_print(
        benchmark, run_artifact, "fig6-right", seconds=240,
    )
    cells = {
        (row["workload"], row["actuator"]): row for row in result.rows
    }
    for workload in ("image-dnn", "moses"):
        blocking = cells[(workload, "blocking")]
        non_blocking = cells[(workload, "non-blocking")]
        # Paper shape: the non-blocking design takes safe timeout actions
        # during stalls and keeps the P99 impact strictly lower.
        assert non_blocking["timeout_actions"] > 0
        assert blocking["timeout_actions"] == 0
        assert (
            non_blocking["p99_increase_pct"]
            <= blocking["p99_increase_pct"]
        )
