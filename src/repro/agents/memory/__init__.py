"""SmartMemory: adaptive page-scan-rate agent for tiered memory (§5.3)."""

from repro.agents.memory.actuator import MemoryActuator
from repro.agents.memory.agent import SmartMemoryAgent
from repro.agents.memory.classify import (
    MemoryPlan,
    classify_by_coverage,
    infer_access_rate,
    infer_access_rates,
    observable_rate,
    observable_rates,
)
from repro.agents.memory.config import MemoryConfig
from repro.agents.memory.model import MemoryModel, RateEstimates
from repro.agents.memory.static import StaticScanController

__all__ = [
    "MemoryActuator",
    "MemoryConfig",
    "MemoryModel",
    "MemoryPlan",
    "RateEstimates",
    "SmartMemoryAgent",
    "StaticScanController",
    "classify_by_coverage",
    "infer_access_rate",
    "infer_access_rates",
    "observable_rate",
    "observable_rates",
]
