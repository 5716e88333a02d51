"""Figure 1: SmartOverclock vs static frequencies (perf and power)."""

from conftest import run_and_print

from repro.experiments import run_artifact


def test_fig1_overclock_vs_static(benchmark):
    result = run_and_print(benchmark, run_artifact, "fig1", seconds=900)
    cells = {
        (row["workload"], row["policy"]): row for row in result.rows
    }
    # Paper shape: SmartOverclock is within ~15% of static 2.3 GHz on the
    # Synthetic workload at substantially lower power increase.
    smart = cells[("Synthetic", "SmartOverclock")]
    static_hi = cells[("Synthetic", "static-2.3GHz")]
    assert smart["norm_perf"] > 1.25           # big win over nominal
    assert static_hi["norm_perf"] < smart["norm_perf"] * 1.20
    smart_extra = smart["norm_power"] - 1.0
    static_extra = static_hi["norm_power"] - 1.0
    assert static_extra > 1.7 * smart_extra    # ~2x power increase saved
    # DiskSpeed: no benefit, so SmartOverclock stays near nominal power.
    disk_smart = cells[("DiskSpeed", "SmartOverclock")]
    assert disk_smart["norm_power"] < 1.20
