"""Figure 3: the model safeguard vs a broken always-overclock model."""

from conftest import run_and_print

from repro.experiments import run_artifact


def test_fig3_broken_model(benchmark):
    result = run_and_print(benchmark, run_artifact, "fig3", seconds=600)
    cells = {
        (row["workload"], row["model_safeguard"]): row
        for row in result.rows
    }
    # Paper shape: on DiskSpeed the unguarded broken model's power
    # increase dwarfs the guarded one (268% vs 18% in the paper).
    guarded = cells[("DiskSpeed", "on")]["power_increase_pct"]
    unguarded = cells[("DiskSpeed", "off")]["power_increase_pct"]
    assert unguarded > 3 * max(guarded, 1.0)
    assert guarded < 40.0
