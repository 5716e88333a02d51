"""Figure 5: the α actuator safeguard across long idle phases."""

from conftest import run_and_print

from repro.experiments import run_artifact


def test_fig5_actuator_safeguard(benchmark):
    result = run_and_print(benchmark, run_artifact, "fig5", seconds=900)
    active_windows = [r for r in result.rows if r["safeguard_active"]]
    inactive_windows = [r for r in result.rows if not r["safeguard_active"]]
    # The safeguard engages during the long idle phase...
    assert active_windows, "safeguard never engaged"
    # ...pins the node at nominal while engaged...
    assert all(r["mean_freq_ghz"] == 1.5 for r in active_windows)
    # ...and the agent overclocks during at least part of the busy phase.
    assert any(r["mean_freq_ghz"] > 1.5 for r in inactive_windows)
