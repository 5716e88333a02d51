"""SmartOverclock assembly: wire Model, Actuator, and runtime together.

This is the agent-developer experience the paper's Listing 3 shows: pick
parameters, instantiate the two halves, hand them to ``RunAgent``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.agents.overclock.actuator import OverclockActuator
from repro.agents.overclock.config import OverclockConfig
from repro.agents.overclock.model import OverclockModel
from repro.core.runtime import SolRuntime
from repro.core.safeguards import SafeguardPolicy
from repro.node.counters import CounterReader
from repro.node.cpu import CpuModel
from repro.node.faults import DelayInjector, ModelBreaker
from repro.sim.kernel import Kernel

__all__ = ["SmartOverclockAgent"]


class SmartOverclockAgent:
    """The complete CPU-overclocking agent of §5.1.

    Args:
        kernel: simulation kernel.
        cpu: the managed VM's frequency domain.
        rng: exploration random stream.
        config: agent parameters (paper defaults).
        policy: safeguard ablation switches (experiments only).
        breaker: optional broken-model injector.
        model_delays / actuator_delays: optional throttling injectors.

    Attributes:
        model / actuator / runtime: the assembled pieces.
        reader: the Model's counter reader — experiments attach
            bad-data injectors here (Figure 2).
    """

    def __init__(
        self,
        kernel: Kernel,
        cpu: CpuModel,
        rng: np.random.Generator,
        config: Optional[OverclockConfig] = None,
        policy: SafeguardPolicy = SafeguardPolicy.all_enabled(),
        breaker: Optional[ModelBreaker] = None,
        model_delays: Optional[DelayInjector] = None,
        actuator_delays: Optional[DelayInjector] = None,
    ) -> None:
        self.config = config or OverclockConfig()
        self.reader = CounterReader(cpu)
        self.model = OverclockModel(
            kernel, self.reader, self.config, rng, breaker=breaker
        )
        self.actuator = OverclockActuator(kernel, cpu, self.config)
        self.runtime = SolRuntime(
            kernel,
            self.model,
            self.actuator,
            self.config.schedule,
            name="smart-overclock",
            policy=policy,
            model_delays=model_delays,
            actuator_delays=actuator_delays,
        )

    def start(self) -> "SmartOverclockAgent":
        """Start both control loops; returns self."""
        self.runtime.start()
        return self

    def terminate(self) -> None:
        """SRE CleanUp: stop loops, restore nominal frequency."""
        self.runtime.terminate()
