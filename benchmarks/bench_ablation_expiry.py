"""Ablation: prediction expiry.

A prediction lands in the queue and then *both* loops stall (the model
mid-epoch, the actuator before its next dequeue).  When the actuator
wakes, the queued prediction is older than its TTL.  With expiry the
runtime maps it to the safe ``None`` action; without expiry the agent
acts on stale state — the §3.2 "decisions based on stale data" failure.
"""

from conftest import run_and_print

from repro.core.safeguards import SafeguardPolicy
from repro.experiments.common import ExperimentResult, overclock_node
from repro.experiments.overclock import CPU_WORKLOADS
from repro.node.faults import DelayInjector
from repro.sim.units import MS, SEC


def expiry_ablation(seconds: int = 30, seed: int = 0) -> ExperimentResult:
    result = ExperimentResult(
        name="ablation-expiry",
        title="Stale queued prediction under a double stall",
        columns=["expiry", "expired_predictions", "acted_on_stale"],
    )
    for enforce in (True, False):
        policy = SafeguardPolicy(enforce_expiry=enforce)
        model_delays = DelayInjector()
        actuator_delays = DelayInjector()
        # Epochs end at 1, 2, 3... s.  The actuator consumes the 1 s
        # prediction, then stalls for 6 s; the 2 s prediction sits in
        # the queue while the model also stalls mid-epoch-3.  At wake
        # (t=7 s) the queued prediction is 5 s old with a 2.5 s TTL.
        actuator_delays.add_window(at_us=1 * SEC, duration_us=6 * SEC)
        model_delays.add_window(at_us=2 * SEC + 50 * MS,
                                duration_us=10 * SEC)
        node = overclock_node(
            CPU_WORKLOADS["ObjectStore"], seed=seed, policy=policy,
            model_delays=model_delays, actuator_delays=actuator_delays,
        )
        stale_actions = {"count": 0}
        original = node.agent.actuator.take_action

        def spying_take_action(prediction, node=node,
                               stale_actions=stale_actions,
                               original=original):
            if prediction is not None and prediction.is_expired(
                node.kernel.now
            ):
                stale_actions["count"] += 1
            original(prediction)

        node.agent.actuator.take_action = spying_take_action
        node.run(seconds)
        result.add_row(
            expiry="on" if enforce else "off",
            expired_predictions=node.agent.runtime.stats()[
                "expired_predictions"
            ],
            acted_on_stale=stale_actions["count"],
        )
    return result


def test_ablation_expiry(benchmark):
    result = run_and_print(benchmark, expiry_ablation)
    cells = {row["expiry"]: row for row in result.rows}
    # With expiry: the stale prediction is detected and never acted on.
    assert cells["on"]["expired_predictions"] >= 1
    assert cells["on"]["acted_on_stale"] == 0
    # Without expiry: the agent acts on stale state.
    assert cells["off"]["expired_predictions"] == 0
    assert cells["off"]["acted_on_stale"] >= 1
