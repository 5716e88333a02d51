"""Figure 7: SmartMemory vs static access-bit scanning."""

from conftest import run_and_print

from repro.experiments import run_artifact


def test_fig7_smartmemory_vs_static(benchmark):
    result = run_and_print(
        benchmark, run_artifact, "fig7", seconds=1500,
        warmup_seconds=300,
    )
    cells = {
        (row["workload"], row["policy"]): row for row in result.rows
    }
    for workload in ("ObjectStore", "SQL", "SpecJBB"):
        smart = cells[(workload, "SmartMemory")]
        slow = cells[(workload, "static-9.6s")]
        fast = cells[(workload, "static-300ms")]
        # Top plot: SmartMemory cuts access-bit resets vs max frequency.
        assert smart["reset_reduction_pct"] > 15.0
        # Middle plot: it still offloads a meaningful share of memory.
        assert smart["local_reduction_pct"] > 20.0
        # Bottom plot: min-frequency scanning attains the SLO the worst.
        assert slow["slo_attainment"] <= smart["slo_attainment"]
        assert slow["slo_attainment"] <= fast["slo_attainment"]
