"""Table 2: on-node learning resource-control agents."""

from conftest import run_and_print

from repro.experiments import run_artifact


def test_table2_learning_agents(benchmark):
    result = run_and_print(benchmark, run_artifact, "table2")
    assert len(result.rows) == 6
    models = {row["model"] for row in result.rows}
    assert "Reinforcement learning" in models
    assert "Multi-armed bandits" in models
