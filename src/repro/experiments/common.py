"""Shared experiment infrastructure: scenario builders and result types.

Every figure/table reproduction builds on three scenario builders — one
per agent — plus a windowed SLO watcher and a plain-text table renderer.
Experiments are deterministic given a seed; EXPERIMENTS.md records the
measured outputs against the paper's.

Experiments read ``runtime.stats()`` and the node's own counters; the
agent's event log keeps no per-event history (DESIGN.md §6).  A caller
that needs individual events attaches a sink to
``scenario.agent.runtime.log`` before running the scenario.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.agents.harvest import SmartHarvestAgent
from repro.agents.memory import SmartMemoryAgent
from repro.agents.overclock import SmartOverclockAgent
from repro.core.events import canonical_scalar
from repro.core.safeguards import SafeguardPolicy
from repro.node.cpu import CpuModel
from repro.node.hypervisor import Hypervisor
from repro.node.memory import TieredMemory
from repro.sim import Kernel, RngStreams
from repro.sim.units import SEC

__all__ = [
    "ExperimentResult",
    "OverclockScenario",
    "HarvestScenario",
    "MemoryScenario",
    "SloWatcher",
    "build_cpu_node",
    "experiment_digest",
]


@dataclass
class ExperimentResult:
    """Rows of one table/figure reproduction plus rendering.

    Attributes:
        name: experiment identifier ("fig1", "table2", ...).
        title: what the paper's artifact shows.
        columns: ordered column names.
        rows: list of dicts keyed by column name.
        notes: reproduction caveats worth printing with the data.
    """

    name: str
    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def render(self) -> str:
        """Plain-text rendering in the paper's row/series layout."""
        widths = {
            col: max(
                len(col),
                *(len(self.format_cell(row.get(col))) for row in self.rows),
            )
            if self.rows
            else len(col)
            for col in self.columns
        }
        lines = [f"== {self.name}: {self.title} =="]
        lines.append(
            "  ".join(col.ljust(widths[col]) for col in self.columns)
        )
        lines.append(
            "  ".join("-" * widths[col] for col in self.columns)
        )
        for row in self.rows:
            lines.append(
                "  ".join(
                    self.format_cell(row.get(col)).ljust(widths[col])
                    for col in self.columns
                )
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    @staticmethod
    def format_cell(value: Any) -> str:
        """Render one cell the way :meth:`render` does (public for
        alternative renderers, e.g. the CLI's markdown emitter)."""
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)


# One canonicalization for every content digest in the repo: the
# conformance known-answer vectors reuse it for terminal-state
# snapshots, so the shared definition lives with the event encoding.
_canonical_cell = canonical_scalar


def experiment_digest(result: "ExperimentResult") -> str:
    """Float-exact, type-canonical digest of an :class:`ExperimentResult`.

    The same canonicalization the golden-digest tests pin (they keep an
    independent copy on purpose); the bench harness uses this one to
    record that an optimized pass still reproduces every row bit.
    """
    payload = json.dumps(
        {
            "name": result.name,
            "columns": [str(column) for column in result.columns],
            "rows": [
                {str(k): _canonical_cell(v) for k, v in row.items()}
                for row in result.rows
            ],
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class SloWatcher:
    """Windowed local-access-fraction tracking for memory experiments.

    Samples the remote/local access split every ``window_us`` and records
    whether each window met the paper's 80%-local SLO.
    """

    def __init__(
        self,
        kernel: Kernel,
        memory: TieredMemory,
        window_us: int = 5 * SEC,
        warmup_us: int = 0,
    ) -> None:
        self.kernel = kernel
        self.memory = memory
        self.window_us = window_us
        self.warmup_us = warmup_us
        self.local_fractions: List[float] = []
        self.n_local_series: List[int] = []
        self.resets_at_warmup: Optional[int] = None
        kernel.spawn(self._run(), name="slo-watcher")

    def _run(self):
        previous = self.memory.snapshot()
        while True:
            yield self.window_us
            current = self.memory.snapshot()
            if (
                self.resets_at_warmup is None
                and self.kernel.now >= self.warmup_us
            ):
                self.resets_at_warmup = current.bit_resets
            local = current.local_accesses - previous.local_accesses
            total = current.total_accesses - previous.total_accesses
            previous = current
            if self.kernel.now <= self.warmup_us:
                continue
            if total > 0:
                self.local_fractions.append(local / total)
            self.n_local_series.append(self.memory.n_local)

    def slo_attainment(self, target: float = 0.8) -> float:
        """Fraction of measured windows meeting the local-access target."""
        if not self.local_fractions:
            return float("nan")
        return float(
            np.mean([f >= target for f in self.local_fractions])
        )

    def mean_local_regions(self) -> float:
        """Average number of first-tier regions over the measured run."""
        if not self.n_local_series:
            return float(self.memory.n_local)
        return float(np.mean(self.n_local_series))

    def steady_state_resets(self) -> int:
        """Access-bit resets after the warmup cut."""
        total = self.memory.snapshot().bit_resets
        return total - (self.resets_at_warmup or 0)


def build_cpu_node(kernel: Kernel, n_cores: int = 8) -> CpuModel:
    """The experiment CPU: 1.5 GHz nominal, overclockable to 2.3 GHz."""
    return CpuModel(
        kernel,
        n_cores=n_cores,
        nominal_freq_ghz=1.5,
        min_freq_ghz=1.5,
        max_freq_ghz=2.3,
        max_ipc=4.0,
    )


@dataclass
class OverclockScenario:
    """One SmartOverclock run: node + workload + optional agent."""

    kernel: Kernel
    streams: RngStreams
    cpu: CpuModel
    workload: Any
    agent: Optional[SmartOverclockAgent]

    @classmethod
    def build(
        cls,
        workload_factory: Callable[[Kernel, CpuModel, RngStreams], Any],
        seed: int = 0,
        agent: bool = True,
        static_freq_ghz: Optional[float] = None,
        policy: SafeguardPolicy = SafeguardPolicy.all_enabled(),
        **agent_kwargs: Any,
    ) -> "OverclockScenario":
        kernel = Kernel()
        streams = RngStreams(seed)
        cpu = build_cpu_node(kernel)
        workload = workload_factory(kernel, cpu, streams)
        workload.start()
        agent_obj = None
        if agent:
            agent_obj = SmartOverclockAgent(
                kernel, cpu, streams.get("agent"), policy=policy,
                **agent_kwargs,
            ).start()
        elif static_freq_ghz is not None:
            cpu.set_frequency(static_freq_ghz)
        return cls(kernel, streams, cpu, workload, agent_obj)

    def run(self, seconds: int) -> "OverclockScenario":
        self.kernel.run(until=seconds * SEC)
        return self

    def mean_watts(self) -> float:
        snap = self.cpu.snapshot()
        return snap.energy_joules / (self.kernel.now / SEC)


@dataclass
class HarvestScenario:
    """One SmartHarvest run: hypervisor + primary workload + agent."""

    kernel: Kernel
    streams: RngStreams
    hypervisor: Hypervisor
    workload: Any
    agent: Optional[SmartHarvestAgent]

    @classmethod
    def build(
        cls,
        workload_factory: Callable[[Kernel, Hypervisor, RngStreams], Any],
        seed: int = 0,
        agent: bool = True,
        policy: SafeguardPolicy = SafeguardPolicy.all_enabled(),
        **agent_kwargs: Any,
    ) -> "HarvestScenario":
        kernel = Kernel()
        streams = RngStreams(seed)
        hypervisor = Hypervisor(
            kernel, n_cores=8, history_horizon_us=1 * SEC
        )
        workload = workload_factory(kernel, hypervisor, streams)
        workload.start()
        agent_obj = None
        if agent:
            agent_obj = SmartHarvestAgent(
                kernel, hypervisor, streams.get("agent"), policy=policy,
                **agent_kwargs,
            )
            agent_obj.start()
        return cls(kernel, streams, hypervisor, workload, agent_obj)

    def run(self, seconds: int) -> "HarvestScenario":
        self.kernel.run(until=seconds * SEC)
        return self

    def harvested_core_seconds(self) -> float:
        return self.hypervisor.snapshot().elastic_cus / SEC


@dataclass
class MemoryScenario:
    """One SmartMemory (or static baseline) run over a memory trace."""

    kernel: Kernel
    streams: RngStreams
    memory: TieredMemory
    trace: Any
    agent: Optional[SmartMemoryAgent]
    watcher: SloWatcher

    @classmethod
    def build(
        cls,
        trace_factory: Callable[[Kernel, TieredMemory, RngStreams], Any],
        seed: int = 0,
        n_regions: int = 256,
        warmup_seconds: int = 0,
        controller_factory: Optional[
            Callable[[Kernel, TieredMemory], Any]
        ] = None,
        agent: bool = True,
        policy: SafeguardPolicy = SafeguardPolicy.all_enabled(),
        **agent_kwargs: Any,
    ) -> "MemoryScenario":
        kernel = Kernel()
        streams = RngStreams(seed)
        memory = TieredMemory(
            kernel,
            n_regions=n_regions,
            pages_per_region=512,
            rng=streams.get("memory"),
        )
        trace = trace_factory(kernel, memory, streams)
        trace.start()
        agent_obj = None
        if controller_factory is not None:
            controller_factory(kernel, memory).start()
        elif agent:
            agent_obj = SmartMemoryAgent(
                kernel, memory, streams.get("agent"), policy=policy,
                **agent_kwargs,
            ).start()
        watcher = SloWatcher(
            kernel, memory, warmup_us=warmup_seconds * SEC
        )
        return cls(kernel, streams, memory, trace, agent_obj, watcher)

    def run(self, seconds: int) -> "MemoryScenario":
        self.kernel.run(until=seconds * SEC)
        return self
