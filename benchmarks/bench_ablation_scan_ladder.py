"""Ablation: SmartMemory scan-frequency ladder size.

The paper's ladder has six geometric steps (300 ms … 9.6 s).  Fewer arms
converge faster but fit region rates more coarsely; this sweep measures
the reset/SLO trade-off.
"""

from conftest import run_and_print

from repro.agents.memory import MemoryConfig
from repro.experiments.common import ExperimentResult, memory_node
from repro.experiments.memory import MEMORY_TRACES
from repro.sim.units import MS


LADDERS = {
    "2-arms": (300 * MS, 9600 * MS),
    "3-arms": (300 * MS, 1200 * MS, 9600 * MS),
    "6-arms (paper)": (
        300 * MS, 600 * MS, 1200 * MS, 2400 * MS, 4800 * MS, 9600 * MS,
    ),
}


def scan_ladder_ablation(
    seconds: int = 1200, seed: int = 0, n_regions: int = 192
) -> ExperimentResult:
    result = ExperimentResult(
        name="ablation-scan-ladder",
        title="Scan-period ladder size (SpecJBB trace)",
        columns=["ladder", "bit_resets", "slo_attainment"],
    )
    for name, periods in LADDERS.items():
        config = MemoryConfig(scan_periods_us=periods)
        node, watcher = memory_node(
            MEMORY_TRACES["SpecJBB"],
            seed=seed,
            n_regions=n_regions,
            warmup_seconds=200,
            config=config,
        )
        node.run(seconds)
        result.add_row(
            ladder=name,
            bit_resets=watcher.steady_state_resets(),
            slo_attainment=watcher.slo_attainment(),
        )
    return result


def test_ablation_scan_ladder(benchmark):
    result = run_and_print(benchmark, scan_ladder_ablation)
    assert len(result.rows) == 3
    for row in result.rows:
        assert row["slo_attainment"] > 0.5
