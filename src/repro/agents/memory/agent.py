"""SmartMemory assembly (§5.3)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.agents.memory.actuator import MemoryActuator
from repro.agents.memory.config import MemoryConfig
from repro.agents.memory.model import MemoryModel, RateEstimates
from repro.core.runtime import SolRuntime
from repro.core.safeguards import SafeguardPolicy
from repro.node.faults import DelayInjector
from repro.node.memory import TieredMemory
from repro.sim.kernel import Kernel

__all__ = ["SmartMemoryAgent"]


class SmartMemoryAgent:
    """The complete page-classification agent of §5.3.

    Args:
        kernel: simulation kernel.
        memory: the VM's two-tier memory.
        rng: random stream (arm sampling, ground-truth selection).
        config: agent parameters (paper defaults).
        policy: safeguard ablation switches (experiments only).
        model_delays / actuator_delays: optional throttling injectors.
    """

    def __init__(
        self,
        kernel: Kernel,
        memory: TieredMemory,
        rng: np.random.Generator,
        config: Optional[MemoryConfig] = None,
        policy: SafeguardPolicy = SafeguardPolicy.all_enabled(),
        model_delays: Optional[DelayInjector] = None,
        actuator_delays: Optional[DelayInjector] = None,
    ) -> None:
        self.config = config or MemoryConfig()
        self.estimates = RateEstimates(memory.n_regions)
        self.model = MemoryModel(
            kernel, memory, self.config, rng, self.estimates
        )
        self.actuator = MemoryActuator(
            kernel, memory, self.config, self.estimates
        )
        self.runtime = SolRuntime(
            kernel,
            self.model,
            self.actuator,
            self.config.schedule,
            name="smart-memory",
            policy=policy,
            model_delays=model_delays,
            actuator_delays=actuator_delays,
        )

    def start(self) -> "SmartMemoryAgent":
        """Start both control loops; returns self."""
        self.runtime.start()
        return self

    def terminate(self) -> None:
        """SRE CleanUp: stop loops, restore all batches to tier one."""
        self.runtime.terminate()
