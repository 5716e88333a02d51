"""Experiment-harness tests at reduced scale (fast smoke coverage).

Full-scale reproduction numbers live in the benchmarks; these tests pin
the harness mechanics — row structure, normalization direction, and the
coarse paper-shape relations that hold even at small scale.
"""

import pytest

from repro.experiments import common
from repro.experiments import (
    ExperimentResult,
    fig2_invalid_data,
    fig4_delayed_predictions,
    fig6_broken_model,
    fig8_memory_safeguards,
    table1_taxonomy,
    table2_learning_agents,
)
from repro.experiments.harvest import TAILBENCH_WORKLOADS, fig6_invalid_data_unit
from repro.experiments.memory import fig8_unit
from repro.experiments.overclock import CPU_WORKLOADS, fig3_unit


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


# -- log modes (DESIGN.md §6) -------------------------------------------------

def _scenario_builds():
    from repro.workloads.traces import SPECJBB_MEM, ZipfMemoryTrace

    def trace(kernel, memory, streams):
        return ZipfMemoryTrace(
            kernel, memory, streams.get("trace"), SPECJBB_MEM
        )

    return [
        (common.OverclockScenario, CPU_WORKLOADS["Synthetic"], {}),
        (common.HarvestScenario, TAILBENCH_WORKLOADS["moses"], {}),
        (common.MemoryScenario, trace, {"n_regions": 32}),
    ]


def test_scenario_builders_default_to_counts_and_accept_full():
    for scenario_cls, factory, extra in _scenario_builds():
        default = scenario_cls.build(factory, **extra)
        assert default.agent.runtime.log.mode == "counts", scenario_cls
        full = scenario_cls.build(factory, log_mode="full", **extra)
        assert full.agent.runtime.log.mode == "full", scenario_cls
        # agent=False builds no agent, so there is nothing to configure.
        assert scenario_cls.build(factory, agent=False, **extra).agent is None


@pytest.mark.parametrize(
    "scenario_name, unit, kwargs",
    [
        ("HarvestScenario", fig6_invalid_data_unit,
         dict(series="moses/on", seconds=20)),
        ("OverclockScenario", fig3_unit,
         dict(series="Synthetic/on", seconds=150, break_at=50)),
        ("MemoryScenario", fig8_unit,
         dict(series="all", seconds=120, n_regions=64)),
    ],
)
def test_units_are_identical_in_both_log_modes(
    monkeypatch, scenario_name, unit, kwargs
):
    """What a unit returns (and so every digest) ignores the log mode."""
    counts_result = unit(**kwargs)
    scenario_cls = getattr(common, scenario_name)
    build = scenario_cls.build
    modes = []

    def build_full(*args, **build_kwargs):
        scenario = build(*args, log_mode="full", **build_kwargs)
        modes.append(scenario.agent.runtime.log.mode)
        return scenario

    monkeypatch.setattr(scenario_cls, "build", build_full)
    assert unit(**kwargs) == counts_result
    assert modes == ["full"]
