"""SmartMemory's Actuator half: tier placement plus the SLO watchdog.

"The agent can directly observe the number of memory accesses to each
tier using existing hardware counters.  If the fraction of remote
accesses over the last epoch is above the 20% target service level
objective (SLO), the Actuator safeguard is triggered.  In this case, the
Actuator immediately migrates the 100 hottest batches in the second-tier
memory back to the first tier" (§5.3).

Delayed predictions need no special action: "It simply leaves the hot
and warm pages where they are" — so ``take_action(None)`` is a no-op and
staleness is handled by the watchdog instead.
"""

from __future__ import annotations

from typing import Optional

from repro.agents.memory.classify import MemoryPlan
from repro.agents.memory.config import MemoryConfig
from repro.agents.memory.model import RateEstimates
from repro.core.interfaces import Actuator
from repro.core.prediction import Prediction
from repro.node.memory import Tier, TieredMemory
from repro.sim.kernel import Kernel

__all__ = ["MemoryActuator"]


class MemoryActuator(Actuator):
    """Apply tier-placement plans; keep remote accesses under the SLO.

    Args:
        kernel: simulation kernel.
        memory: two-tier memory substrate.
        config: agent parameters.
        estimates: rate board shared with the Model (mitigation needs
            "hottest" rankings without reaching into model internals).
    """

    def __init__(
        self,
        kernel: Kernel,
        memory: TieredMemory,
        config: MemoryConfig,
        estimates: RateEstimates,
    ) -> None:
        self.kernel = kernel
        self.memory = memory
        self.config = config
        self.estimates = estimates
        self._last_snapshot = memory.snapshot()
        self.plans_applied = 0
        self.noop_actions = 0

    def take_action(
        self, prediction: Optional[Prediction[MemoryPlan]]
    ) -> None:
        if prediction is None:
            self.noop_actions += 1  # leave placement as is (§5.3)
            return
        plan = prediction.value
        self.memory.migrate_many(plan.hot, Tier.LOCAL)
        self.memory.migrate_many(plan.warm, Tier.REMOTE)
        self.memory.migrate_many(plan.cold, Tier.REMOTE)
        self.plans_applied += 1

    def assess_performance(self) -> bool:
        """Remote-access fraction since the last check must meet the SLO."""
        current = self.memory.snapshot()
        previous, self._last_snapshot = self._last_snapshot, current
        local = current.local_accesses - previous.local_accesses
        remote = current.remote_accesses - previous.remote_accesses
        total = local + remote
        if total <= 0:
            return True  # idle memory cannot violate the SLO
        return remote / total <= self.config.slo_remote_fraction

    def mitigate(self) -> None:
        """Migrate the hottest remote batches back to the first tier."""
        hottest = self.estimates.hottest_remote(
            self.memory.remote_regions, self.config.mitigation_batch
        )
        self.memory.migrate_many(hottest, Tier.LOCAL)

    def clean_up(self) -> None:
        """SRE path: restore every batch to the first tier (§5.3)."""
        self.memory.migrate_many(range(self.memory.n_regions), Tier.LOCAL)
