"""Figure 4: non-blocking vs blocking Actuator under a 30s model stall."""

from conftest import run_and_print

from repro.experiments import run_artifact


def test_fig4_delayed_predictions(benchmark):
    result = run_and_print(benchmark, run_artifact, "fig4", seconds=300)
    cells = {row["actuator"]: row for row in result.rows}
    # Paper shape: blocking wastes far more power during the stall
    # (36% vs 3% in the paper) and never takes timeout actions.
    assert (
        cells["blocking"]["power_increase_pct"]
        > 3 * cells["non-blocking"]["power_increase_pct"]
    )
    assert cells["blocking"]["timeout_actions"] == 0
    assert cells["non-blocking"]["timeout_actions"] > 0
