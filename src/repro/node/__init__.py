"""Simulated server-node substrate (CPU, hypervisor, memory, faults).

These are the systems the paper's testbed provides in hardware and
Hyper-V; ``DESIGN.md`` §2 documents each substitution.
"""

from repro.node.counters import CounterReader, IntervalMetrics
from repro.node.cpu import CounterSnapshot, CpuModel
from repro.node.faults import (
    DelayInjector,
    ModelBreaker,
    bad_ips_injector,
    bad_usage_injector,
    stuck_usage_injector,
)
from repro.node.hypervisor import Hypervisor, HypervisorSnapshot
from repro.node.memory import (
    MemorySnapshot,
    ScanBatch,
    ScanResult,
    Tier,
    TieredMemory,
)
from repro.node.power import PowerModel
from repro.node.signals import PiecewiseConstant, SlidingWindowQuantile
from repro.node.vm import VirtualMachine

__all__ = [
    "CounterReader",
    "CounterSnapshot",
    "CpuModel",
    "DelayInjector",
    "Hypervisor",
    "HypervisorSnapshot",
    "IntervalMetrics",
    "MemorySnapshot",
    "ModelBreaker",
    "PiecewiseConstant",
    "PowerModel",
    "ScanBatch",
    "ScanResult",
    "SlidingWindowQuantile",
    "Tier",
    "TieredMemory",
    "VirtualMachine",
    "bad_ips_injector",
    "bad_usage_injector",
    "stuck_usage_injector",
]
