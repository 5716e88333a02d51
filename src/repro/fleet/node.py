"""The node builder, and one fleet node built with it.

:func:`build_node` is where every simulated node is assembled — a paper
figure's unit, a fleet or sweep node run, a conformance agent scenario:
one :class:`~repro.sim.kernel.Kernel`, one
:class:`~repro.sim.rng.RngStreams`, the node model of a
:class:`~repro.platform.taxonomy.NodeSku`, a workload and an agent.  The
paper's node is :data:`GEN5`, the ``gen5-general`` SKU.

A :class:`FleetNode` is the unit of sharding.  Its streams are seeded
from ``(fleet seed, node_id)`` only, so running it in any worker
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
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.agents.harvest import SmartHarvestAgent
from repro.agents.memory import SmartMemoryAgent
from repro.agents.overclock import SmartOverclockAgent
from repro.fleet.config import NodeRun, NodeSpec
from repro.fleet.faults import attach_burst
from repro.node.cpu import CpuModel
from repro.node.hypervisor import Hypervisor
from repro.node.memory import TieredMemory
from repro.platform.taxonomy import NODE_SKUS, NodeSku
from repro.sim import Kernel, RngStreams
from repro.sim.units import SEC
from repro.workloads.base import percentile
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

__all__ = [
    "CPU_WORKLOADS", "FleetNode", "GEN5", "MEMORY_TRACES", "Node",
    "NodeResult", "SLO_WINDOW_US", "TAILBENCH_WORKLOADS", "build_node",
]

#: The paper's node (§6.2): 8 cores, 1.5 GHz nominal, 2.3 GHz ceiling,
#: 256 memory regions.  Every single-node experiment runs this SKU.
GEN5: NodeSku = NODE_SKUS[0]

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


# -- workloads, by paper name: ``factory(kernel, model, streams)`` ----------
# The fleet's plan draws from these names in this order
# (``repro.fleet.config._WORKLOADS_BY_AGENT``; a test keeps them equal).


def _tailbench(profile):
    def factory(kernel, hypervisor, streams):
        return TailBenchWorkload(
            kernel, hypervisor, streams.get("workload"), profile
        )

    return factory


def _zipf_trace(profile):
    def factory(kernel, memory, streams):
        return ZipfMemoryTrace(kernel, memory, streams.get("trace"), profile)

    return factory


#: The three §6.2 workloads.
CPU_WORKLOADS: Dict[str, Callable] = {
    "Synthetic": lambda kernel, cpu, streams: SyntheticBatchWorkload(
        kernel, cpu, period_us=100 * SEC
    ),
    "ObjectStore": lambda kernel, cpu, streams: ObjectStoreWorkload(
        kernel, cpu, streams.get("workload")
    ),
    "DiskSpeed": lambda kernel, cpu, streams: DiskSpeedWorkload(
        kernel, cpu, streams.get("workload")
    ),
}

#: The §6.3 primary-VM workloads.
TAILBENCH_WORKLOADS: Dict[str, Callable] = {
    "image-dnn": _tailbench(IMAGE_DNN),
    "moses": _tailbench(MOSES),
}

#: The §6.4 memory workloads.
MEMORY_TRACES: Dict[str, Callable] = {
    "ObjectStore": _zipf_trace(OBJECTSTORE_MEM),
    "SQL": _zipf_trace(SQL_MEM),
    "SpecJBB": _zipf_trace(SPECJBB_MEM),
}

_WORKLOADS = {
    "overclock": CPU_WORKLOADS,
    "harvest": TAILBENCH_WORKLOADS,
    "memory": MEMORY_TRACES,
}


# -- the builder ------------------------------------------------------------


@dataclass
class Node:
    """One assembled node: a kernel, its streams, model, workload, agent.

    ``model`` is the kind's node model (:class:`CpuModel`,
    :class:`Hypervisor` or :class:`TieredMemory`); ``agent`` is ``None``
    on a no-agent node.
    """

    kernel: Kernel
    streams: RngStreams
    model: Any
    workload: Any
    agent: Any = None

    def run(self, seconds: int) -> "Node":
        """Advance the simulation to ``seconds`` of simulated time."""
        self.kernel.run(until=seconds * SEC)
        return self


def _node_model(kind: str, kernel: Kernel, sku: NodeSku, streams):
    if kind == "overclock":
        return CpuModel(
            kernel,
            n_cores=sku.n_cores,
            nominal_freq_ghz=sku.nominal_freq_ghz,
            min_freq_ghz=sku.nominal_freq_ghz,
            max_freq_ghz=sku.max_freq_ghz,
            max_ipc=sku.max_ipc,
        )
    if kind == "harvest":
        return Hypervisor(kernel, n_cores=sku.n_cores, history_horizon_us=SEC)
    if kind == "memory":
        return TieredMemory(
            kernel,
            n_regions=sku.memory_regions,
            pages_per_region=512,
            rng=streams.get("memory"),
        )
    raise ValueError(f"unknown agent kind {kind!r}")


_AGENTS = {
    "overclock": SmartOverclockAgent,
    "harvest": SmartHarvestAgent,
    "memory": SmartMemoryAgent,
}


def build_node(
    kind: str,
    workload_factory: Callable[[Kernel, Any, RngStreams], Any],
    seed: int,
    sku: NodeSku = GEN5,
    agent: bool = True,
    before_agent: Optional[Callable[[Node], None]] = None,
    **agent_kwargs: Any,
) -> Node:
    """Assemble one node of agent ``kind`` (overclock/harvest/memory).

    The steps run in a fixed order, because kernel spawn order and RNG
    stream names are the determinism contract: the node model (the
    ``"memory"`` stream for tiered memory), then the workload, started;
    then ``before_agent(node)`` (an SLO watcher, a static frequency, a
    static scanner in place of the agent); then, if ``agent``, the
    kind's SOL agent on the ``"agent"`` stream, built with
    ``agent_kwargs`` (``policy``, ``config``, ``breaker``, delays) and
    started.
    """
    kernel = Kernel()
    streams = RngStreams(seed)
    model = _node_model(kind, kernel, sku, streams)
    workload = workload_factory(kernel, model, streams)
    node = Node(kernel, streams, model, workload)
    workload.start()
    if before_agent is not None:
        before_agent(node)
    if agent:
        node.agent = _AGENTS[kind](
            kernel, model, streams.get("agent"), **agent_kwargs
        ).start()
    return node


# -- the fleet node ---------------------------------------------------------


@dataclass
class NodeResult:
    """Everything the fleet aggregation and the safety scoreboard need
    from one node.

    Every field is typed data the durable codec stores as JSON
    (:mod:`repro.cache.codec`).  The three ``first_*_us`` fields are the
    node's first engagements — model safeguard, actuator safeguard, a
    default/none actuation — at or after its fault onset (t = 0 on a
    node with no fault window), ``None`` if there was none.
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
    first_model_safeguard_us: Optional[int] = None
    first_actuator_safeguard_us: Optional[int] = None
    first_fallback_us: Optional[int] = None
    agent_kills: int = 0
    agent_restarts: int = 0

    @property
    def slo_violation_rate(self) -> float:
        if self.slo_windows == 0:
            return 0.0
        return self.slo_violations / self.slo_windows


def _fleet_workload(spec: NodeSpec, duration_s: int) -> Callable:
    if spec.agent == "overclock" and spec.workload == "Synthetic":
        # Scale the batch period so even short fleet runs complete
        # batches (the single-node experiments run 900 s; fleets often
        # run each node for 1-2 minutes).
        period_us = min(100 * SEC, max(SEC, duration_s * SEC // 4))
        return lambda kernel, cpu, streams: SyntheticBatchWorkload(
            kernel, cpu, period_us=period_us
        )
    try:
        return _WORKLOADS[spec.agent][spec.workload]
    except KeyError:
        raise ValueError(
            f"unknown {spec.agent} workload {spec.workload!r}"
        ) from None


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
        self._windows: List[bool] = []  # True = violated
        # The fleet's SLO watcher spawns before the agent.
        self.node = build_node(
            spec.agent,
            _fleet_workload(spec, duration_s),
            spec.seed,
            sku=spec.sku,
            before_agent=self._spawn_watcher,
        )
        if fault_window_us is not None:
            attach_burst(
                self.node.kernel,
                spec.agent,
                self.node.agent,
                self.node.streams,
                fault_window_us,
                fault_probability,
                kind=fault_kind,
            )
        # The node's first engagements count from its fault onset (t = 0
        # with no fault window): warmup fallbacks before it do not count.
        self._fault_onset_us = fault_window_us[0] if fault_window_us else 0
        self.node.agent.runtime.fallback_from_us = self._fault_onset_us

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

    def _spawn_watcher(self, node: Node) -> None:
        watcher = {
            "overclock": self._watch_overclock,
            "harvest": self._watch_latency,
            "memory": self._watch_locality,
        }[self.spec.agent]
        node.kernel.spawn(watcher(node), name="fleet.slo")

    # -- SLO watchers (one 5 s verdict per window) --------------------------

    def _watch_overclock(self, node: Node) -> Generator:
        """Wasted-power windows: above-nominal frequency while idle."""
        sku = self.spec.sku
        window_s = SLO_WINDOW_US / SEC
        previous = node.model.snapshot()
        while True:
            yield SLO_WINDOW_US
            current = node.model.snapshot()
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

    def _watch_latency(self, node: Node) -> Generator:
        profile = node.workload.profile
        p99_budget_ms = P99_SLO_MULTIPLE * profile.base_latency_ms
        seen = 0
        while True:
            yield SLO_WINDOW_US
            samples = node.workload.latency_samples_ms[seen:]
            seen = len(node.workload.latency_samples_ms)
            if not samples:
                continue
            self._windows.append(percentile(samples, 99) > p99_budget_ms)

    def _watch_locality(self, node: Node) -> Generator:
        previous = node.model.snapshot()
        while True:
            yield SLO_WINDOW_US
            current = node.model.snapshot()
            local = current.local_accesses - previous.local_accesses
            total = current.total_accesses - previous.total_accesses
            previous = current
            if total <= 0:
                continue
            self._windows.append(local / total < LOCAL_FRACTION_TARGET)

    # -- execution ----------------------------------------------------------

    def run(self) -> NodeResult:
        """Simulate the node for its configured duration and report."""
        self.node.run(self.duration_s)
        runtime = self.node.agent.runtime
        stats = runtime.stats()
        onset_us = self._fault_onset_us
        try:
            perf = self.node.workload.performance()
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
            action_histogram=dict(runtime.actions),
            first_model_safeguard_us=(
                runtime.model_safeguard.first_triggered_at_us_since(onset_us)
            ),
            first_actuator_safeguard_us=(
                runtime.actuator_safeguard.first_triggered_at_us_since(
                    onset_us
                )
            ),
            first_fallback_us=runtime.first_fallback_us,
            agent_kills=stats["agent_kills"],
            agent_restarts=stats["agent_restarts"],
        )
