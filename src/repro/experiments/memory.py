"""SmartMemory experiments: Figures 7 and 8.

Both figures are decomposed into independent series units (DESIGN.md
§7): Figure 7 into one ``workload × policy`` scenario per unit (nine
units — this is the ``reproduce-all`` straggler, 1500 simulated seconds
per scenario, so sub-artifact sharding matters most here), Figure 8
into one safeguard variant per unit.
:func:`repro.experiments.driver.run_artifact` is the one composer, so
in-process and sharded passes are row-identical by construction.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping

from repro.agents.memory import MemoryConfig, StaticScanController
from repro.core.safeguards import SafeguardPolicy
from repro.experiments.common import ExperimentResult, MemoryScenario
from repro.workloads.traces import (
    OBJECTSTORE_MEM,
    SPECJBB_MEM,
    SQL_MEM,
    OscillatingMemoryTrace,
    ZipfMemoryTrace,
)

__all__ = ["MEMORY_TRACES"]


def _trace_factory(profile):
    def factory(kernel, memory, streams):
        return ZipfMemoryTrace(kernel, memory, streams.get("trace"), profile)

    return factory


#: The §6.4 memory workloads, by paper name.
MEMORY_TRACES: Dict[str, Callable] = {
    "ObjectStore": _trace_factory(OBJECTSTORE_MEM),
    "SQL": _trace_factory(SQL_MEM),
    "SpecJBB": _trace_factory(SPECJBB_MEM),
}

# -- Figure 7 ----------------------------------------------------------------

_FIG7_POLICIES = ("static-300ms", "static-9.6s", "SmartMemory")


def fig7_series(**_kwargs: Any) -> List[str]:
    """One unit per workload × scanning policy."""
    return [
        f"{workload}/{policy}"
        for workload in MEMORY_TRACES
        for policy in _FIG7_POLICIES
    ]


def fig7_unit(
    series: str,
    seconds: int = 1800,
    seed: int = 0,
    n_regions: int = 256,
    warmup_seconds: int = 300,
) -> Dict[str, Any]:
    """One memory scenario; raw watcher statistics as the payload."""
    workload_name, policy_name = series.split("/")
    trace_factory = MEMORY_TRACES[workload_name]
    config = MemoryConfig()

    def max_controller(kernel, memory):
        return StaticScanController(
            kernel, memory, config.scan_periods_us[0], config
        )

    def min_controller(kernel, memory):
        return StaticScanController(
            kernel, memory, config.scan_periods_us[-1], config
        )

    kwargs: Dict[str, Any] = {
        "static-300ms": dict(controller_factory=max_controller, agent=False),
        "static-9.6s": dict(controller_factory=min_controller, agent=False),
        "SmartMemory": dict(),
    }[policy_name]
    scenario = MemoryScenario.build(
        trace_factory,
        seed=seed,
        n_regions=n_regions,
        warmup_seconds=warmup_seconds,
        **kwargs,
    ).run(seconds)
    watcher = scenario.watcher
    return {
        "steady_state_resets": watcher.steady_state_resets(),
        "mean_local_regions": watcher.mean_local_regions(),
        "slo_attainment": watcher.slo_attainment(),
    }


def fig7_assemble(
    units: Mapping[str, Dict[str, Any]],
    seconds: int = 1800,
    seed: int = 0,
    n_regions: int = 256,
    warmup_seconds: int = 300,
) -> ExperimentResult:
    """Figure 7: SmartMemory vs static 300 ms / 9.6 s scanning.

    Reduces raw watcher stats to the paper's three stacked metrics per
    workload × policy:

    * ``reset_reduction_pct`` — access-bit resets saved vs max-frequency
      scanning (paper top plot; up to ~48% for SmartMemory);
    * ``local_reduction_pct`` — first-tier size reduction (middle plot);
    * ``slo_attainment`` — fraction of 5 s windows with ≥80% local
      accesses (bottom plot; min-frequency collapses).
    """
    result = ExperimentResult(
        name="fig7",
        title="SmartMemory vs static access-bit scanning",
        columns=["workload", "policy", "reset_reduction_pct",
                 "local_reduction_pct", "slo_attainment"],
    )
    for workload_name in MEMORY_TRACES:
        max_resets = units[f"{workload_name}/static-300ms"][
            "steady_state_resets"
        ]
        for policy_name in _FIG7_POLICIES:
            cell = units[f"{workload_name}/{policy_name}"]
            result.add_row(
                workload=workload_name,
                policy=policy_name,
                reset_reduction_pct=100.0
                * (1.0 - cell["steady_state_resets"] / max_resets),
                local_reduction_pct=100.0
                * (1.0 - cell["mean_local_regions"] / n_regions),
                slo_attainment=cell["slo_attainment"],
            )
    return result


# -- Figure 8 ----------------------------------------------------------------

_FIG8_VARIANTS = ("none", "actuator-only", "model-only", "all")


def _fig8_policy(name: str) -> SafeguardPolicy:
    return {
        "none": SafeguardPolicy(assess_model=False, assess_actuator=False),
        "actuator-only": SafeguardPolicy(assess_model=False),
        "model-only": SafeguardPolicy(assess_actuator=False),
        "all": SafeguardPolicy.all_enabled(),
    }[name]


def fig8_series(**_kwargs: Any) -> List[str]:
    return list(_FIG8_VARIANTS)


def fig8_unit(
    series: str, seconds: int = 920, seed: int = 0, n_regions: int = 256
) -> Dict[str, Any]:
    """One oscillating-SpecJBB run under a safeguard-ablation variant."""

    def trace_factory(kernel, memory, streams):
        return OscillatingMemoryTrace(
            kernel, memory, streams.get("trace"), SPECJBB_MEM
        )

    scenario = MemoryScenario.build(
        trace_factory, seed=seed, n_regions=n_regions,
        policy=_fig8_policy(series),
    ).run(seconds)
    stats = scenario.agent.runtime.stats()
    return {
        "slo_attainment": scenario.watcher.slo_attainment(),
        "mitigations": stats["mitigations"],
        "interceptions": stats["interceptions"],
    }


def fig8_assemble(
    units: Mapping[str, Dict[str, Any]],
    seconds: int = 920,
    seed: int = 0,
    n_regions: int = 256,
) -> ExperimentResult:
    """Figure 8: Model and Actuator safeguards on the oscillating workload.

    SpecJBB runs 150 s / sleeps 80 s with a popularity reshuffle at each
    wake.  SLO attainment across the safeguard ablation lattice — the
    paper reports 66% with no safeguards and 90% with all.
    """
    result = ExperimentResult(
        name="fig8",
        title="Safeguard ablation on the oscillating SpecJBB workload",
        columns=["safeguards", "slo_attainment", "mitigations",
                 "interceptions"],
    )
    for name in _FIG8_VARIANTS:
        cell = units[name]
        result.add_row(
            safeguards=name,
            slo_attainment=cell["slo_attainment"],
            mitigations=cell["mitigations"],
            interceptions=cell["interceptions"],
        )
    return result
