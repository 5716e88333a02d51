"""Experiment-harness tests at reduced scale (fast smoke coverage).

Full-scale reproduction numbers live in the benchmarks; these tests pin
the harness mechanics — row structure, normalization direction, and the
coarse paper-shape relations that hold even at small scale.
"""

from repro.experiments import (
    ExperimentResult,
    fig2_invalid_data,
    fig4_delayed_predictions,
    fig6_broken_model,
    fig8_memory_safeguards,
    table1_taxonomy,
    table2_learning_agents,
)


def test_experiment_result_rendering():
    result = ExperimentResult(
        name="x", title="demo", columns=["a", "b"]
    )
    result.add_row(a=1, b=2.5)
    result.notes.append("hello")
    text = result.render()
    assert "demo" in text
    assert "2.500" in text
    assert "note: hello" in text


def test_tables_have_expected_shapes():
    t1 = table1_taxonomy()
    assert len(t1.rows) == 6
    t2 = table2_learning_agents()
    assert len(t2.rows) == 6


def test_fig2_small_scale_validation_beats_no_validation():
    # Short runs are noisy (one batch of learning); allow slack and pin
    # the full-strength relation in the fig2 benchmark instead.
    result = fig2_invalid_data(seconds=300, bad_fractions=(0.0, 0.2))
    cells = {
        (row["bad_fraction"], row["validation"]): row for row in result.rows
    }
    assert (
        cells[(0.2, "on")]["norm_perf"]
        >= cells[(0.2, "off")]["norm_perf"] - 0.05
    )


def test_fig4_small_scale_blocking_wastes_power():
    result = fig4_delayed_predictions(seconds=250)
    cells = {row["actuator"]: row for row in result.rows}
    assert (
        cells["blocking"]["power_increase_pct"]
        > cells["non-blocking"]["power_increase_pct"]
    )


def test_fig6_middle_small_scale_safeguards_help():
    result = fig6_broken_model(seconds=120)
    cells = {
        (row["workload"], row["safeguards"]): row for row in result.rows
    }
    for workload in ("image-dnn", "moses"):
        assert (
            cells[(workload, "off")]["p99_increase_pct"]
            > cells[(workload, "on")]["p99_increase_pct"]
        )


def test_fig8_small_scale_all_safeguards_best():
    result = fig8_memory_safeguards(seconds=470, n_regions=128)
    cells = {row["safeguards"]: row for row in result.rows}
    assert (
        cells["all"]["slo_attainment"] >= cells["none"]["slo_attainment"]
    )
