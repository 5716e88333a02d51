"""SmartHarvest assembly (§5.2): the agent from [37], hardened in SOL."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.agents.harvest.actuator import HarvestActuator
from repro.agents.harvest.config import HarvestConfig
from repro.agents.harvest.model import HarvestModel
from repro.core.runtime import SolRuntime
from repro.core.safeguards import SafeguardPolicy
from repro.node.faults import DelayInjector, ModelBreaker
from repro.node.hypervisor import Hypervisor
from repro.sim.kernel import Kernel

__all__ = ["SmartHarvestAgent"]


class SmartHarvestAgent:
    """The complete CPU-harvesting agent of §5.2.

    Args:
        kernel: simulation kernel.
        hypervisor: core-scheduling substrate shared with the primary VM.
        rng: random stream for telemetry noise.
        config: agent parameters (paper defaults).
        policy: safeguard ablation switches (experiments only).
        breaker: optional broken-model injector (e.g. always predict 0
            cores needed, the Figure 6-middle failure).
        model_delays / actuator_delays: optional throttling injectors.
    """

    def __init__(
        self,
        kernel: Kernel,
        hypervisor: Hypervisor,
        rng: np.random.Generator,
        config: Optional[HarvestConfig] = None,
        policy: SafeguardPolicy = SafeguardPolicy.all_enabled(),
        breaker: Optional[ModelBreaker] = None,
        model_delays: Optional[DelayInjector] = None,
        actuator_delays: Optional[DelayInjector] = None,
    ) -> None:
        self.config = config or HarvestConfig()
        self.model = HarvestModel(
            kernel, hypervisor, self.config, rng, breaker=breaker
        )
        self.actuator = HarvestActuator(kernel, hypervisor, self.config)
        self.runtime = SolRuntime(
            kernel,
            self.model,
            self.actuator,
            self.config.schedule,
            name="smart-harvest",
            policy=policy,
            model_delays=model_delays,
            actuator_delays=actuator_delays,
        )

    def start(self) -> "SmartHarvestAgent":
        """Start both control loops; returns self."""
        self.runtime.start()
        return self

    def terminate(self) -> None:
        """SRE CleanUp: stop loops, return all harvested cores."""
        self.runtime.terminate()
