"""Ablation: the Model/Actuator decoupling itself.

SOL's central design decision is running the Model and Actuator in
separately scheduled loops.  The "coupled" variant here is the blocking
strawman (the Actuator waits on the Model indefinitely), evaluated under
repeated model throttling — quantifying how much of the safety comes
from the split alone.
"""

from conftest import run_and_print

from repro.core.safeguards import SafeguardPolicy
from repro.experiments.common import ExperimentResult
from repro.fleet.node import TAILBENCH_WORKLOADS, build_node
from repro.node.faults import DelayInjector
from repro.sim.units import SEC


def coupling_ablation(seconds: int = 240, seed: int = 0) -> ExperimentResult:
    result = ExperimentResult(
        name="ablation-coupling",
        title="Decoupled vs coupled loops under repeated model throttling",
        columns=["design", "p99_latency_ms", "actions_taken",
                 "safe_timeout_actions"],
    )
    for coupled in (False, True):
        policy = SafeguardPolicy(non_blocking_actuator=not coupled)
        delays = DelayInjector()
        for i in range(1, 24):
            delays.add_window(at_us=i * 10 * SEC, duration_us=2 * SEC)
        node = build_node(
            "harvest", TAILBENCH_WORKLOADS["image-dnn"], seed,
            policy=policy, model_delays=delays,
        ).run(seconds)
        stats = node.agent.runtime.stats()
        result.add_row(
            design="coupled (blocking)" if coupled else "decoupled (SOL)",
            p99_latency_ms=node.workload.performance().value,
            actions_taken=stats["actuations"],
            safe_timeout_actions=stats["actuation_timeouts"],
        )
    return result


def test_ablation_coupling(benchmark):
    result = run_and_print(benchmark, coupling_ablation)
    cells = {row["design"]: row for row in result.rows}
    decoupled = cells["decoupled (SOL)"]
    coupled = cells["coupled (blocking)"]
    assert decoupled["safe_timeout_actions"] > 0
    assert coupled["safe_timeout_actions"] == 0
    assert decoupled["p99_latency_ms"] <= coupled["p99_latency_ms"] * 1.05
