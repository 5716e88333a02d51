"""Figure 8: SmartMemory Model + Actuator safeguards under oscillation."""

from conftest import run_and_print

from repro.experiments import run_artifact


def test_fig8_memory_safeguards(benchmark):
    result = run_and_print(benchmark, run_artifact, "fig8", seconds=920)
    cells = {row["safeguards"]: row for row in result.rows}
    # Paper shape: 66% attainment with no safeguards, 90% with all; each
    # safeguard individually helps, and "all" is the best.
    assert cells["none"]["slo_attainment"] < cells["all"]["slo_attainment"]
    assert (
        cells["actuator-only"]["slo_attainment"]
        >= cells["none"]["slo_attainment"]
    )
    assert (
        cells["model-only"]["slo_attainment"]
        >= cells["none"]["slo_attainment"]
    )
    assert cells["all"]["slo_attainment"] > 0.85
    assert cells["none"]["slo_attainment"] < 0.90
