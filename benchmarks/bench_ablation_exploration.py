"""Ablation: SmartOverclock exploration rate ε.

The paper fixes ε = 0.1.  This sweep shows the trade-off the choice
balances: no exploration cannot adapt (it may never discover
overclocking pays), while heavy exploration wastes power on random
frequencies.
"""

from conftest import run_and_print

from repro.agents.overclock import OverclockConfig
from repro.experiments.common import (
    ExperimentResult,
    mean_watts,
    overclock_node,
)
from repro.experiments.overclock import CPU_WORKLOADS


def exploration_ablation(
    seconds: int = 600, seed: int = 0, epsilons=(0.0, 0.05, 0.1, 0.3)
) -> ExperimentResult:
    result = ExperimentResult(
        name="ablation-exploration",
        title="Exploration rate on ObjectStore (always benefits)",
        columns=["epsilon", "p99_latency_ms", "mean_watts"],
    )
    for epsilon in epsilons:
        config = OverclockConfig(epsilon=epsilon)
        node = overclock_node(
            CPU_WORKLOADS["ObjectStore"], seed=seed, config=config
        ).run(seconds)
        result.add_row(
            epsilon=epsilon,
            p99_latency_ms=node.workload.performance().value,
            mean_watts=mean_watts(node),
        )
    return result


def test_ablation_exploration(benchmark):
    result = run_and_print(benchmark, exploration_ablation)
    by_eps = {row["epsilon"]: row for row in result.rows}
    # Heavy exploration hurts the tail relative to the paper's 10%.
    assert by_eps[0.3]["p99_latency_ms"] >= by_eps[0.1]["p99_latency_ms"]
