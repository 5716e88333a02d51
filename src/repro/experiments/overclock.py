"""SmartOverclock experiments: Figures 1-5 of the paper.

Figures 1-4 are decomposed into independent *series units* — one
scenario (or tightly-coupled scenario pair) per ``workload × policy``
cell — following the sub-artifact sharding contract in DESIGN.md §7:
``<fig>_series`` lists the canonical unit keys, ``<fig>_unit`` runs one
key to a picklable payload of raw measurements, and ``<fig>_assemble``
derives the figure's rows from the payload map.  Each scenario seeds its
own kernel and RNG streams from the unit arguments alone, so any shard
shape reproduces the same rows.  Figure 5 is a single time-series kernel
and stays whole.  :func:`repro.experiments.driver.run_artifact` runs
one figure in-process; ``reproduce_all`` runs them as work units.
Durations default to values that reach learned steady state.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from repro.core.safeguards import SafeguardPolicy
from repro.experiments.common import (
    ExperimentResult,
    mean_watts,
    overclock_node,
)
from repro.fleet.node import CPU_WORKLOADS
from repro.node.faults import DelayInjector, ModelBreaker, bad_ips_injector
from repro.sim.units import SEC
from repro.workloads.synthetic import SyntheticBatchWorkload

__all__ = ["CPU_WORKLOADS", "fig5_actuator_safeguard"]

# -- Figure 1 ----------------------------------------------------------------

_FIG1_STATIC_FREQS = (1.5, 1.9, 2.3)
_FIG1_POLICIES = tuple(
    [f"static-{freq}GHz" for freq in _FIG1_STATIC_FREQS] + ["SmartOverclock"]
)


def fig1_series(**_kwargs: Any) -> List[str]:
    """Canonical unit keys: one scenario per workload × policy."""
    return [
        f"{workload}/{policy}"
        for workload in CPU_WORKLOADS
        for policy in _FIG1_POLICIES
    ]


def fig1_unit(series: str, seconds: int = 900, seed: int = 0) -> Dict[str, Any]:
    """Run one workload × policy scenario; raw perf/power payload."""
    workload_name, policy = series.split("/")
    factory = CPU_WORKLOADS[workload_name]
    freq = None
    if policy != "SmartOverclock":
        freq = float(policy[len("static-"):-len("GHz")])
    node = overclock_node(factory, seed=seed, static_freq_ghz=freq)
    node.run(seconds)
    return {"perf": node.workload.performance(), "watts": mean_watts(node)}


def fig1_assemble(
    units: Mapping[str, Dict[str, Any]], seconds: int = 900, seed: int = 0
) -> ExperimentResult:
    """Figure 1: SmartOverclock vs static frequencies, perf and power.

    Normalized performance and power relative to static 1.5 GHz, for
    each workload × {1.5, 1.9, 2.3 GHz, SmartOverclock}: every cell is
    normalized against its workload's static-1.5 GHz run.
    """
    result = ExperimentResult(
        name="fig1",
        title="SmartOverclock vs static frequency (normalized to 1.5GHz)",
        columns=["workload", "policy", "norm_perf", "norm_power"],
    )
    for workload_name in CPU_WORKLOADS:
        base = units[f"{workload_name}/static-1.5GHz"]
        for policy in _FIG1_POLICIES:
            cell = units[f"{workload_name}/{policy}"]
            result.add_row(
                workload=workload_name,
                policy=policy,
                norm_perf=cell["perf"].normalized_against(base["perf"]),
                norm_power=cell["watts"] / base["watts"],
            )
    return result


# -- Figure 2 ----------------------------------------------------------------


def fig2_series(
    bad_fractions=(0.0, 0.05, 0.10, 0.20), **_kwargs: Any
) -> List[str]:
    """Unit keys in the serial sweep order (fraction-major, 'on' first)."""
    return [
        f"{fraction}/{'on' if validation else 'off'}"
        for fraction in bad_fractions
        for validation in (True, False)
    ]


def fig2_unit(
    series: str,
    seconds: int = 600,
    seed: int = 0,
    bad_fractions=(0.0, 0.05, 0.10, 0.20),
) -> Dict[str, Any]:
    """One Synthetic run at a (bad-data fraction, validation) cell."""
    fraction_text, validation_text = series.rsplit("/", 1)
    fraction = float(fraction_text)
    policy = SafeguardPolicy(validate_data=validation_text == "on")
    node = overclock_node(CPU_WORKLOADS["Synthetic"], seed=seed, policy=policy)
    if fraction > 0:
        node.agent.reader.add_injector(
            bad_ips_injector(node.streams.get("fault"), fraction)
        )
    node.run(seconds)
    return {"perf": node.workload.performance(), "watts": mean_watts(node)}


def fig2_assemble(
    units: Mapping[str, Dict[str, Any]],
    seconds: int = 600,
    seed: int = 0,
    bad_fractions=(0.0, 0.05, 0.10, 0.20),
) -> ExperimentResult:
    """Figure 2: the data-validation safeguard under invalid IPS readings.

    Synthetic workload; a fraction of IPS counter readings is replaced
    with out-of-range values.  Performance/power normalized to the
    clean (0% bad data) guarded agent — the first run.
    """
    result = ExperimentResult(
        name="fig2",
        title="Invalid IPS readings vs data-validation safeguard"
              " (Synthetic; normalized to 0% bad data)",
        columns=["bad_fraction", "validation", "norm_perf", "norm_power"],
    )
    reference = units[f"{bad_fractions[0]}/on"]
    for fraction in bad_fractions:
        for validation in (True, False):
            cell = units[f"{fraction}/{'on' if validation else 'off'}"]
            result.add_row(
                bad_fraction=fraction,
                validation="on" if validation else "off",
                norm_perf=cell["perf"].normalized_against(reference["perf"]),
                norm_power=cell["watts"] / reference["watts"],
            )
    return result


# -- Figure 3 ----------------------------------------------------------------

_FIG3_VARIANTS = ("healthy", "on", "off")


def fig3_series(**_kwargs: Any) -> List[str]:
    """Per workload: the healthy baseline plus the guarded/unguarded runs."""
    return [
        f"{workload}/{variant}"
        for workload in CPU_WORKLOADS
        for variant in _FIG3_VARIANTS
    ]


def fig3_unit(
    series: str, seconds: int = 600, seed: int = 0, break_at: int = 120
) -> Dict[str, Any]:
    """One scenario: healthy agent, or broken model with safeguard on/off."""
    workload_name, variant = series.split("/")
    factory = CPU_WORKLOADS[workload_name]
    if variant == "healthy":
        node = overclock_node(factory, seed=seed)
        return {"watts": mean_watts(node.run(seconds))}
    policy = SafeguardPolicy(assess_model=variant == "on")
    breaker = ModelBreaker(broken_value=2.3)
    node = overclock_node(factory, seed=seed, policy=policy, breaker=breaker)
    node.kernel.call_later(break_at * SEC, breaker.arm)
    return {"watts": mean_watts(node.run(seconds))}


def fig3_assemble(
    units: Mapping[str, Dict[str, Any]],
    seconds: int = 600,
    seed: int = 0,
    break_at: int = 120,
) -> ExperimentResult:
    """Figure 3: model safeguard vs a broken always-overclock model.

    The model is broken at ``break_at`` seconds to always select the
    highest frequency; power is reported as the increase over each
    workload's healthy-agent run.
    """
    result = ExperimentResult(
        name="fig3",
        title="Broken (always-overclock) model: power increase vs healthy",
        columns=["workload", "model_safeguard", "power_increase_pct"],
    )
    for workload_name in CPU_WORKLOADS:
        healthy_watts = units[f"{workload_name}/healthy"]["watts"]
        for variant in ("on", "off"):
            watts = units[f"{workload_name}/{variant}"]["watts"]
            result.add_row(
                workload=workload_name,
                model_safeguard=variant,
                power_increase_pct=100.0 * (watts / healthy_watts - 1.0),
            )
    return result


# -- Figure 4 ----------------------------------------------------------------

_FIG4_ACTUATORS = ("non-blocking", "blocking")


def fig4_series(**_kwargs: Any) -> List[str]:
    return list(_FIG4_ACTUATORS)


def fig4_unit(
    series: str, seconds: int = 400, seed: int = 0, delay_seconds: int = 30
) -> Dict[str, Any]:
    """One stall-injection run; the row is self-contained per actuator."""
    blocking = series == "blocking"
    policy = SafeguardPolicy(non_blocking_actuator=not blocking)
    delays = DelayInjector()
    node = overclock_node(
        CPU_WORKLOADS["Synthetic"], seed=seed, policy=policy,
        model_delays=delays,
    )
    cpu = node.model
    window: dict = {}

    def on_batch_end(index, node=node, delays=delays, window=window):
        if index != 1:
            return
        delays.trigger_now(delay_seconds * SEC)
        window["start_us"] = node.kernel.now
        window["energy_start"] = cpu.snapshot().energy_joules
        node.kernel.call_later(
            delay_seconds * SEC,
            lambda: window.__setitem__(
                "energy_end", cpu.snapshot().energy_joules
            ),
        )

    node.workload.on_batch_end.append(on_batch_end)
    node.run(seconds)
    stall_watts = (
        window["energy_end"] - window["energy_start"]
    ) / delay_seconds
    # reference: the same idle window at nominal frequency
    idle_nominal_watts = cpu.power_model.watts(
        cpu.n_cores, cpu.nominal_freq_ghz, 0.0
    )
    return {
        "power_increase_pct": 100.0
        * (stall_watts / idle_nominal_watts - 1.0),
        "timeout_actions": node.agent.runtime.stats()["actuation_timeouts"],
    }


def fig4_assemble(
    units: Mapping[str, Dict[str, Any]],
    seconds: int = 400,
    seed: int = 0,
    delay_seconds: int = 30,
) -> ExperimentResult:
    """Figure 4: non-blocking vs blocking Actuator under a model stall.

    A ``delay_seconds`` stall is injected into the Model loop exactly
    when the Synthetic workload finishes a batch — the worst case: the
    last prediction said "overclock" and the workload just went idle.
    Power is measured over the stall window and compared to an idle
    node at the nominal frequency, matching the paper's framing ("the
    blocking agent overclocks the workload for 30 seconds into its idle
    phase, increasing power consumption by 36%").
    """
    result = ExperimentResult(
        name="fig4",
        title=f"{delay_seconds}s model stall at batch end: "
              "power increase over the stall window",
        columns=["actuator", "power_increase_pct", "timeout_actions"],
    )
    for actuator in _FIG4_ACTUATORS:
        cell = units[actuator]
        result.add_row(
            actuator=actuator,
            power_increase_pct=cell["power_increase_pct"],
            timeout_actions=cell["timeout_actions"],
        )
    return result


# -- Figure 5 ----------------------------------------------------------------


def fig5_actuator_safeguard(
    seconds: int = 900, seed: int = 0
) -> ExperimentResult:
    """Figure 5: the α safeguard across a long idle phase (time series).

    A Synthetic workload processes one long batch then idles for
    minutes.  The series shows frequency and safeguard state per 30 s
    window: overclocked while busy, safeguard-disabled during idle,
    re-enabled on the next batch.  (One kernel, one time series — this
    artifact has no independent sub-units to shard.)
    """
    result = ExperimentResult(
        name="fig5",
        title="Actuator (α) safeguard over idle phases: 30s windows",
        columns=["window_start_s", "mean_freq_ghz", "safeguard_active",
                 "mean_watts"],
    )
    node = overclock_node(
        lambda kernel, cpu, streams: SyntheticBatchWorkload(
            kernel, cpu, period_us=420 * SEC,
            batch_giga_instructions=48.0 * 120,
        ),
        seed=seed,
    )
    cpu, agent = node.model, node.agent
    window = 30
    previous = cpu.snapshot()

    for start in range(0, seconds, window):
        node.run(start + window)
        snap = cpu.snapshot()
        watts = (snap.energy_joules - previous.energy_joules) / window
        previous = snap
        result.add_row(
            window_start_s=start,
            mean_freq_ghz=cpu.frequency_ghz,
            safeguard_active=agent.runtime.actuator_safeguard.active,
            mean_watts=watts,
        )
    triggers = agent.runtime.stats()["actuator_safeguard_triggers"]
    result.notes.append(f"safeguard triggers: {triggers}")
    return result
