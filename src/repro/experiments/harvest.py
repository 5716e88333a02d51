"""SmartHarvest experiments: the three panels of Figure 6.

Each panel is decomposed into independent series units (DESIGN.md §7):
per workload, a no-agent baseline run plus one run per safeguard
variant.  ``*_series``/``*_unit``/``*_assemble`` implement the
sub-artifact sharding contract, and
:func:`repro.experiments.driver.run_artifact` is the one composer, so
in-process and sharded passes are row-identical by construction.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from repro.core.safeguards import SafeguardPolicy
from repro.experiments.common import ExperimentResult
from repro.fleet.node import TAILBENCH_WORKLOADS, build_node
from repro.node.faults import DelayInjector, ModelBreaker, stuck_usage_injector
from repro.sim.units import SEC

__all__ = ["TAILBENCH_WORKLOADS"]


def _baseline_p99(name: str, seconds: int, seed: int) -> float:
    node = build_node("harvest", TAILBENCH_WORKLOADS[name], seed, agent=False)
    return node.run(seconds).workload.performance().value


def _series(variants) -> List[str]:
    return [
        f"{workload}/{variant}"
        for workload in TAILBENCH_WORKLOADS
        for variant in ("baseline",) + tuple(variants)
    ]


# -- Figure 6 (left) ---------------------------------------------------------


def fig6_invalid_data_series(**_kwargs: Any) -> List[str]:
    return _series(("on", "off"))


def fig6_invalid_data_unit(
    series: str, seconds: int = 240, seed: int = 0, corruption: float = 0.9
) -> Dict[str, Any]:
    """One run: no-agent baseline, or corrupted-telemetry agent run."""
    workload_name, variant = series.split("/")
    if variant == "baseline":
        return {"p99": _baseline_p99(workload_name, seconds, seed)}
    policy = (
        SafeguardPolicy.all_enabled()
        if variant == "on"
        else SafeguardPolicy.none_enabled()
    )
    node = build_node(
        "harvest", TAILBENCH_WORKLOADS[workload_name], seed, policy=policy
    )
    node.agent.model.injectors.append(
        stuck_usage_injector(node.streams.get("fault"), corruption)
    )
    node.run(seconds)
    return {
        "p99": node.workload.performance().value,
        "harvested_core_s": node.model.snapshot().elastic_cus / SEC,
    }


def fig6_invalid_data_assemble(
    units: Mapping[str, Dict[str, Any]],
    seconds: int = 240,
    seed: int = 0,
    corruption: float = 0.9,
) -> ExperimentResult:
    """Figure 6 (left): bad usage telemetry vs the validation safeguard.

    A misconfigured hypervisor counter returns its error sentinel for
    ``corruption`` of reads.  P99 increase is relative to a no-agent
    run.  (Substitution note: the paper's natural full-utilization
    censoring self-corrects under our actuator's slow-borrow/fast-return
    design, so the bad data is injected at the counter boundary instead;
    the same ``ValidateData`` safeguard is exercised.)
    """
    result = ExperimentResult(
        name="fig6-left",
        title=f"Bad usage telemetry ({corruption:.0%} corrupt reads): "
              "P99 increase vs no harvesting",
        columns=["workload", "safeguards", "p99_increase_pct",
                 "harvested_core_s"],
    )
    for workload_name in TAILBENCH_WORKLOADS:
        baseline = units[f"{workload_name}/baseline"]["p99"]
        for variant in ("on", "off"):
            cell = units[f"{workload_name}/{variant}"]
            result.add_row(
                workload=workload_name,
                safeguards=variant,
                p99_increase_pct=100.0 * (cell["p99"] / baseline - 1.0),
                harvested_core_s=cell["harvested_core_s"],
            )
    return result


# -- Figure 6 (middle) -------------------------------------------------------


def fig6_broken_model_series(**_kwargs: Any) -> List[str]:
    return _series(("on", "off"))


def fig6_broken_model_unit(
    series: str, seconds: int = 240, seed: int = 0, break_at: int = 60
) -> Dict[str, Any]:
    workload_name, variant = series.split("/")
    if variant == "baseline":
        return {"p99": _baseline_p99(workload_name, seconds, seed)}
    policy = (
        SafeguardPolicy.all_enabled()
        if variant == "on"
        else SafeguardPolicy.none_enabled()
    )
    breaker = ModelBreaker(broken_value=0)
    node = build_node(
        "harvest", TAILBENCH_WORKLOADS[workload_name], seed,
        policy=policy, breaker=breaker,
    )
    node.kernel.call_later(break_at * SEC, breaker.arm)
    return {"p99": node.run(seconds).workload.performance().value}


def fig6_broken_model_assemble(
    units: Mapping[str, Dict[str, Any]],
    seconds: int = 240,
    seed: int = 0,
    break_at: int = 60,
) -> ExperimentResult:
    """Figure 6 (middle): a broken model that predicts zero core need."""
    result = ExperimentResult(
        name="fig6-middle",
        title="Broken model (predicts 0 cores needed): P99 increase",
        columns=["workload", "safeguards", "p99_increase_pct"],
    )
    for workload_name in TAILBENCH_WORKLOADS:
        baseline = units[f"{workload_name}/baseline"]["p99"]
        for variant in ("on", "off"):
            cell = units[f"{workload_name}/{variant}"]
            result.add_row(
                workload=workload_name,
                safeguards=variant,
                p99_increase_pct=100.0 * (cell["p99"] / baseline - 1.0),
            )
    return result


# -- Figure 6 (right) --------------------------------------------------------


def fig6_delayed_predictions_series(**_kwargs: Any) -> List[str]:
    return _series(("non-blocking", "blocking"))


def fig6_delayed_predictions_unit(
    series: str,
    seconds: int = 240,
    seed: int = 0,
    delay_seconds: float = 1.0,
    ramp_cores: float = 1.5,
    cooldown_seconds: float = 4.0,
) -> Dict[str, Any]:
    workload_name, variant = series.split("/")
    if variant == "baseline":
        return {"p99": _baseline_p99(workload_name, seconds, seed)}
    blocking = variant == "blocking"
    policy = SafeguardPolicy(non_blocking_actuator=not blocking)
    delays = DelayInjector()
    node = build_node(
        "harvest", TAILBENCH_WORKLOADS[workload_name], seed,
        policy=policy, model_delays=delays,
    )

    def ramp_watcher(node=node, delays=delays):
        hypervisor = node.model
        previous = hypervisor.demand
        last_injection = -1e18
        while True:
            yield 25_000  # one demand step
            current = hypervisor.demand
            now = node.kernel.now
            if (
                current - previous >= ramp_cores
                and now - last_injection >= cooldown_seconds * SEC
            ):
                delays.trigger_now(int(delay_seconds * SEC))
                last_injection = now
            previous = current

    node.kernel.spawn(ramp_watcher(), name="ramp-watch")
    node.run(seconds)
    return {
        "p99": node.workload.performance().value,
        "timeout_actions": node.agent.runtime.stats()["actuation_timeouts"],
        "delays_injected": len(delays.triggered),
    }


def fig6_delayed_predictions_assemble(
    units: Mapping[str, Dict[str, Any]],
    seconds: int = 240,
    seed: int = 0,
    delay_seconds: float = 1.0,
    ramp_cores: float = 1.5,
    cooldown_seconds: float = 4.0,
) -> ExperimentResult:
    """Figure 6 (right): 1 s scheduling delays, blocking vs non-blocking.

    Matching the paper's worst case, delays are injected "during periods
    when the primary VM increases CPU utilization": a watcher arms a 1 s
    Model-loop stall whenever demand jumps by ``ramp_cores`` within one
    step, so the agent goes blind exactly when cores must come back.
    """
    result = ExperimentResult(
        name="fig6-right",
        title=f"{delay_seconds:.0f}s model delays on demand ramps: "
              "blocking vs non-blocking",
        columns=["workload", "actuator", "p99_increase_pct",
                 "timeout_actions", "delays_injected"],
    )
    for workload_name in TAILBENCH_WORKLOADS:
        baseline = units[f"{workload_name}/baseline"]["p99"]
        for variant in ("non-blocking", "blocking"):
            cell = units[f"{workload_name}/{variant}"]
            result.add_row(
                workload=workload_name,
                actuator=variant,
                p99_increase_pct=100.0 * (cell["p99"] / baseline - 1.0),
                timeout_actions=cell["timeout_actions"],
                delays_injected=cell["delays_injected"],
            )
    return result
