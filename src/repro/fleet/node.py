"""One fleet node: an independent kernel, node model, workload, agent.

A :class:`FleetNode` is the unit of sharding.  It owns a private
:class:`~repro.sim.kernel.Kernel` and :class:`~repro.sim.rng.RngStreams`
seeded from ``(fleet seed, node_id)`` only, so running it in any worker
process, in any order, produces the same :class:`NodeResult`.

Each agent kind gets a node-local SLO judged per 5-second window:

* ``overclock`` — no wasted-power windows: cores must not run above
  nominal frequency while utilization is idle (<10%), the Figure 4/5
  pathology;
* ``harvest`` — windowed P99 latency within 3× the profile's base P50;
* ``memory`` — ≥80% of accesses served from the first tier (the
  paper's local-access SLO).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.agents.harvest import SmartHarvestAgent
from repro.agents.memory import SmartMemoryAgent
from repro.agents.overclock import SmartOverclockAgent
from repro.fleet.config import NodeRun, NodeSpec
from repro.fleet.faults import attach_burst
from repro.node.cpu import CpuModel
from repro.node.hypervisor import Hypervisor
from repro.node.memory import TieredMemory
from repro.sim import Kernel, RngStreams
from repro.sim.units import SEC
from repro.workloads.diskspeed import DiskSpeedWorkload
from repro.workloads.objectstore import ObjectStoreWorkload
from repro.workloads.synthetic import SyntheticBatchWorkload
from repro.workloads.tailbench import IMAGE_DNN, MOSES, TailBenchWorkload
from repro.workloads.traces import (
    OBJECTSTORE_MEM,
    SPECJBB_MEM,
    SQL_MEM,
    ZipfMemoryTrace,
)

__all__ = ["FleetNode", "NodeResult", "SLO_WINDOW_US"]

#: SLO judgement window (matches the paper's 5 s memory-SLO windows).
SLO_WINDOW_US = 5 * SEC

#: Overclock SLO: a window is wasteful when the cores ran above this
#: multiple of nominal frequency while utilization sat below
#: :data:`IDLE_UTILIZATION` — the Figure 4/5 pathology (overclocking an
#: idle node) judged per window.
OVERCLOCK_FREQ_MARGIN = 1.02
IDLE_UTILIZATION = 0.10

#: Harvest SLO: windowed P99 ≤ this multiple of the profile's base P50.
P99_SLO_MULTIPLE = 3.0

#: Memory SLO: minimum local-access fraction per window.
LOCAL_FRACTION_TARGET = 0.8


@dataclass
class NodeResult:
    """Everything the fleet aggregation needs from one node.

    Plain picklable data only — results cross process boundaries.
    """

    node_id: int
    rack: int
    sku: str
    agent: str
    workload: str
    sim_seconds: int
    perf_metric: str
    perf_value: float
    slo_windows: int
    slo_violations: int
    safeguard_trips: Dict[str, int] = field(default_factory=dict)
    action_histogram: Dict[str, int] = field(default_factory=dict)
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def slo_violation_rate(self) -> float:
        if self.slo_windows == 0:
            return 0.0
        return self.slo_violations / self.slo_windows


def _overclock_workload(name, kernel, cpu, streams, duration_s):
    if name == "Synthetic":
        # Scale the batch period so even short fleet runs complete
        # batches (the single-node experiments run 900 s; fleets often
        # run each node for 1-2 minutes).
        period_us = min(100 * SEC, max(SEC, duration_s * SEC // 4))
        return SyntheticBatchWorkload(kernel, cpu, period_us=period_us)
    if name == "ObjectStore":
        return ObjectStoreWorkload(kernel, cpu, streams.get("workload"))
    if name == "DiskSpeed":
        return DiskSpeedWorkload(kernel, cpu, streams.get("workload"))
    raise ValueError(f"unknown overclock workload {name!r}")


_TAILBENCH_PROFILES = {"image-dnn": IMAGE_DNN, "moses": MOSES}
_MEMORY_PROFILES = {
    "ObjectStore": OBJECTSTORE_MEM,
    "SQL": SQL_MEM,
    "SpecJBB": SPECJBB_MEM,
}


class FleetNode:
    """Build and run one node of the fleet.

    Args:
        spec: the node's resolved plan (SKU, agent, workload, seed).
        duration_s: simulated seconds to run.
        fault_window_us: optional ``(start, end)`` of a correlated
            fault burst this node participates in.
        fault_probability: fault intensity inside the window (per-read
            corruption/staleness chance, or per-node crash chance for
            ``crash_restart``).
        fault_kind: burst kind (:data:`repro.fleet.config.FAULT_KINDS`).
    """

    def __init__(
        self,
        spec: NodeSpec,
        duration_s: int,
        fault_window_us: Optional[Tuple[int, int]] = None,
        fault_probability: float = 0.0,
        fault_kind: str = "bad_data",
    ) -> None:
        self.spec = spec
        self.duration_s = duration_s
        self.kernel = Kernel()
        self.streams = RngStreams(spec.seed)
        self._windows: List[bool] = []  # True = violated

        self._fault_window_us = fault_window_us
        builder = getattr(self, f"_build_{spec.agent}")
        self.agent = builder()
        if fault_window_us is not None:
            attach_burst(
                self.kernel,
                spec.agent,
                self.agent,
                self.streams,
                fault_window_us,
                fault_probability,
                kind=fault_kind,
            )
            # Time-to-fallback is anchored at the burst onset; warmup
            # fallbacks before it must not satisfy the query.
            self.agent.runtime.log.watch_fallback_from(fault_window_us[0])

    @classmethod
    def from_run(cls, run: NodeRun) -> "FleetNode":
        """The node ``run`` names (:meth:`FleetConfig.node_run`)."""
        return cls(
            run.node_spec(),
            duration_s=run.duration_s,
            fault_window_us=run.fault_window_us(),
            fault_probability=run.intensity,
            fault_kind=run.fault_kind or "bad_data",
        )

    # -- per-agent assembly -------------------------------------------------

    def _build_overclock(self) -> SmartOverclockAgent:
        sku = self.spec.sku
        self.cpu = CpuModel(
            self.kernel,
            n_cores=sku.n_cores,
            nominal_freq_ghz=sku.nominal_freq_ghz,
            min_freq_ghz=sku.nominal_freq_ghz,
            max_freq_ghz=sku.max_freq_ghz,
            max_ipc=sku.max_ipc,
        )
        self.workload = _overclock_workload(
            self.spec.workload, self.kernel, self.cpu, self.streams,
            self.duration_s,
        ).start()
        self.kernel.spawn(self._watch_overclock(), name="fleet.slo")
        return SmartOverclockAgent(
            self.kernel, self.cpu, self.streams.get("agent")
        ).start()

    def _build_harvest(self) -> SmartHarvestAgent:
        sku = self.spec.sku
        self.hypervisor = Hypervisor(
            self.kernel, n_cores=sku.n_cores, history_horizon_us=1 * SEC
        )
        profile = _TAILBENCH_PROFILES[self.spec.workload]
        self.workload = TailBenchWorkload(
            self.kernel,
            self.hypervisor,
            self.streams.get("workload"),
            profile,
        ).start()
        self.kernel.spawn(
            self._watch_latency(P99_SLO_MULTIPLE * profile.base_latency_ms),
            name="fleet.slo",
        )
        agent = SmartHarvestAgent(
            self.kernel, self.hypervisor, self.streams.get("agent")
        )
        agent.start()
        return agent

    def _build_memory(self) -> SmartMemoryAgent:
        sku = self.spec.sku
        self.memory = TieredMemory(
            self.kernel,
            n_regions=sku.memory_regions,
            pages_per_region=512,
            rng=self.streams.get("memory"),
        )
        profile = _MEMORY_PROFILES[self.spec.workload]
        self.workload = ZipfMemoryTrace(
            self.kernel, self.memory, self.streams.get("trace"), profile
        ).start()
        self.kernel.spawn(self._watch_locality(), name="fleet.slo")
        return SmartMemoryAgent(
            self.kernel, self.memory, self.streams.get("agent")
        ).start()

    # -- SLO watchers (one 5 s verdict per window) --------------------------

    def _watch_overclock(self) -> Generator:
        """Wasted-power windows: above-nominal frequency while idle."""
        sku = self.spec.sku
        window_s = SLO_WINDOW_US / SEC
        previous = self.cpu.snapshot()
        while True:
            yield SLO_WINDOW_US
            current = self.cpu.snapshot()
            total = current.total_cycles - previous.total_cycles
            unhalted = current.unhalted_cycles - previous.unhalted_cycles
            previous = current
            utilization = unhalted / total if total > 0 else 0.0
            mean_freq_ghz = total / (sku.n_cores * window_s)
            self._windows.append(
                utilization < IDLE_UTILIZATION
                and mean_freq_ghz
                > OVERCLOCK_FREQ_MARGIN * sku.nominal_freq_ghz
            )

    def _watch_latency(self, p99_budget_ms: float) -> Generator:
        from repro.workloads.base import percentile

        seen = 0
        while True:
            yield SLO_WINDOW_US
            samples = self.workload.latency_samples_ms[seen:]
            seen = len(self.workload.latency_samples_ms)
            if not samples:
                continue
            self._windows.append(percentile(samples, 99) > p99_budget_ms)

    def _watch_locality(self) -> Generator:
        previous = self.memory.snapshot()
        while True:
            yield SLO_WINDOW_US
            current = self.memory.snapshot()
            local = current.local_accesses - previous.local_accesses
            total = current.total_accesses - previous.total_accesses
            previous = current
            if total <= 0:
                continue
            self._windows.append(local / total < LOCAL_FRACTION_TARGET)

    # -- execution ----------------------------------------------------------

    def run(self) -> NodeResult:
        """Simulate the node for its configured duration and report."""
        self.kernel.run(until=self.duration_s * SEC)
        runtime = self.agent.runtime
        stats = runtime.stats()
        # Safety-timing extras the sweep campaigns consume.  These live
        # only in NodeResult.stats, which the fleet digest's canonical
        # form deliberately excludes — pinned digests are unaffected.
        stats["model_safeguard_first_trigger_us"] = (
            runtime.model_safeguard.first_triggered_at_us
        )
        stats["actuator_safeguard_first_trigger_us"] = (
            runtime.actuator_safeguard.first_triggered_at_us
        )
        stats["first_fallback_us"] = runtime.log.first_fallback_us()
        if self._fault_window_us is not None:
            # Engagement anchors for the sweep campaigns: the first
            # signal *at or after* the burst onset (warmup fallbacks and
            # pre-fault safeguard trips must not count as engagement).
            onset_us = self._fault_window_us[0]
            stats["model_safeguard_first_trigger_since_fault_us"] = (
                runtime.model_safeguard.first_triggered_at_us_since(onset_us)
            )
            stats["actuator_safeguard_first_trigger_since_fault_us"] = (
                runtime.actuator_safeguard.first_triggered_at_us_since(
                    onset_us
                )
            )
            stats["first_fallback_since_fault_us"] = (
                runtime.log.first_watched_fallback_us()
            )
        try:
            perf = self.workload.performance()
            perf_metric, perf_value = perf.metric, float(perf.value)
        except ValueError:
            # Nothing measurable yet (run shorter than one batch/request).
            perf_metric, perf_value = "unavailable", float("nan")
        return NodeResult(
            node_id=self.spec.node_id,
            rack=self.spec.rack,
            sku=self.spec.sku.name,
            agent=self.spec.agent,
            workload=self.spec.workload,
            sim_seconds=self.duration_s,
            perf_metric=perf_metric,
            perf_value=perf_value,
            slo_windows=len(self._windows),
            slo_violations=sum(self._windows),
            safeguard_trips={
                "model": stats["model_safeguard_triggers"],
                "actuator": stats["actuator_safeguard_triggers"],
            },
            action_histogram=self._action_histogram(runtime),
            stats=stats,
        )

    @staticmethod
    def _action_histogram(runtime) -> Dict[str, int]:
        """Count actuations by prediction provenance: model/default/none."""
        return runtime.log.action_histogram()
