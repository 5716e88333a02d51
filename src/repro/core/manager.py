"""Node-level agent management — the operator (SRE) surface.

"Different agents are typically developed by different teams in large
cloud platforms.  SOL provides a unified interface across teams to
reduce deployment complexity.  Moreover, its interface allows cloud
operators (e.g., site reliability engineers or SREs) to safely terminate
and cleanup after misbehaving agents without knowing anything about
their implementation" (§1).

:class:`AgentManager` is that interface: it holds every agent runtime
on a node, surfaces uniform health summaries, and exposes kill switches
that only rely on the idempotent ``CleanUp`` contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.runtime import SolRuntime
from repro.sim.kernel import Kernel

__all__ = ["AgentHealth", "AgentManager"]


@dataclass(frozen=True)
class AgentHealth:
    """A uniform, implementation-agnostic health summary of one agent."""

    name: str
    running: bool
    epochs: int
    actuations: int
    model_safeguard_active: bool
    actuator_safeguard_active: bool
    model_crashes: int
    actuator_crashes: int
    mitigations: int

    @property
    def healthy(self) -> bool:
        """Running with no safeguard currently engaged."""
        return (
            self.running
            and not self.model_safeguard_active
            and not self.actuator_safeguard_active
        )


class AgentManager:
    """Registry and kill-switch panel for all agents on a node.

    Example (the SRE workflow)::

        manager = AgentManager(kernel)
        manager.register(overclock_agent.runtime)
        manager.register(harvest_agent.runtime)
        ...
        for health in manager.health_report():
            if not health.healthy:
                manager.terminate(health.name)
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self._runtimes: Dict[str, SolRuntime] = {}

    def register(self, runtime: SolRuntime) -> None:
        """Track a runtime; names must be unique per node."""
        if runtime.name in self._runtimes:
            raise ValueError(f"agent {runtime.name!r} already registered")
        self._runtimes[runtime.name] = runtime

    def names(self) -> List[str]:
        """Registered agent names."""
        return sorted(self._runtimes)

    def get(self, name: str) -> SolRuntime:
        """The runtime for ``name`` (KeyError if unknown)."""
        return self._runtimes[name]

    def health(self, name: str) -> AgentHealth:
        """Health summary for one agent."""
        runtime = self._runtimes[name]
        stats = runtime.stats()
        return AgentHealth(
            name=name,
            running=runtime.running,
            epochs=stats["epochs"],
            actuations=stats["actuations"],
            model_safeguard_active=runtime.model_safeguard.active,
            actuator_safeguard_active=runtime.actuator_safeguard.active,
            model_crashes=stats["model_crashes"],
            actuator_crashes=stats["actuator_crashes"],
            mitigations=stats["mitigations"],
        )

    def health_report(self) -> List[AgentHealth]:
        """Health summaries for every registered agent."""
        return [self.health(name) for name in self.names()]

    def terminate(self, name: str) -> None:
        """Kill one agent and run its ``CleanUp`` (safe at any time)."""
        self._runtimes[name].terminate()

    def terminate_all(self) -> int:
        """Node evacuation: clean-kill every agent; returns the count.

        Termination is per-agent isolated: one agent's CleanUp raising
        does not stop the sweep (mirrors an SRE runbook that must
        always finish).
        """
        terminated = 0
        for name in self.names():
            try:
                self._runtimes[name].terminate()
                terminated += 1
            except Exception:  # noqa: BLE001 - isolation by design
                continue
        return terminated

    def render_report(self) -> str:
        """Human-readable node health table."""
        lines = [
            f"{'agent':20s} {'state':8s} {'epochs':>7s} {'actions':>8s} "
            f"{'crashes':>8s} {'safeguards':>12s}"
        ]
        for health in self.health_report():
            state = "running" if health.running else "stopped"
            guards = []
            if health.model_safeguard_active:
                guards.append("model")
            if health.actuator_safeguard_active:
                guards.append("actuator")
            crashes = health.model_crashes + health.actuator_crashes
            lines.append(
                f"{health.name:20s} {state:8s} {health.epochs:>7d} "
                f"{health.actuations:>8d} {crashes:>8d} "
                f"{','.join(guards) or '-':>12s}"
            )
        return "\n".join(lines)
