"""Fleet configuration: node specs derived deterministically from a seed.

The key property (DESIGN.md §5): every per-node decision — SKU, agent
kind, workload, RNG seed — is a pure function of ``(fleet seed,
node_id)``.  Sharding the fleet across worker processes therefore cannot
change any node's simulation, and fleet aggregates are bit-identical no
matter how many workers run them or in what order shards complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.names import AGENT_KINDS, DEFAULT_RACK_SIZE, FAULT_KINDS
from repro.platform.taxonomy import NODE_SKUS, NodeSku
from repro.sim.rng import stable_hash

__all__ = [
    "AGENT_KINDS", "FAULT_KINDS", "FaultPlan", "FleetConfig", "NodeRun",
    "NodeSpec",
]


@dataclass(frozen=True)
class FaultPlan:
    """A correlated fault burst across whole racks.

    Models a rack-level failure (bad firmware push, broken ToR-switch
    counter relay, a poisoned agent rollout): every node in the affected
    racks is hit at the same simulated instant, for the same duration —
    the fleet-scale version of the paper's §6.1 failure injections.

    Attributes:
        racks: rack indices the burst hits.
        start_s: burst onset, seconds of simulated time.
        duration_s: burst length in seconds.
        probability: fault intensity inside the window — per-read
            corruption chance (``bad_data``), per-read stale/dropped
            chance (``dropout``), or per-node crash chance
            (``crash_restart``).
        kind: one of :data:`FAULT_KINDS`.
    """

    racks: Tuple[int, ...] = (0,)
    start_s: int = 30
    duration_s: int = 60
    probability: float = 0.9
    kind: str = "bad_data"

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.start_s < 0 or self.duration_s <= 0:
            raise ValueError("burst window must have positive extent")
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, "
                f"got {self.kind!r}"
            )


@dataclass(frozen=True)
class NodeSpec:
    """The fully-resolved plan for one simulated node."""

    node_id: int
    rack: int
    sku: NodeSku
    agent: str
    workload: str
    seed: int


@dataclass(frozen=True)
class FleetConfig:
    """Shape of one fleet experiment.

    Attributes:
        n_nodes: number of simulated nodes.
        agent: agent kind every node runs, or ``"mixed"``.
        seed: fleet master seed; all per-node seeds derive from it.
        duration_s: simulated seconds each node runs.
        rack_size: nodes per rack (rack = blast radius of FaultPlan).
        fault: optional correlated-burst injection plan.
    """

    n_nodes: int
    agent: str = "overclock"
    seed: int = 0
    duration_s: int = 120
    rack_size: int = DEFAULT_RACK_SIZE
    fault: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        if self.rack_size <= 0:
            raise ValueError("rack_size must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.agent not in AGENT_KINDS + ("mixed",):
            raise ValueError(
                f"agent must be one of {AGENT_KINDS + ('mixed',)}, "
                f"got {self.agent!r}"
            )
        if self.fault is not None:
            # A plan that cannot touch any node is a config mistake, not
            # a degenerate experiment — fail it loudly.
            bad_racks = [
                r for r in self.fault.racks
                if not 0 <= r < self.n_racks
            ]
            if bad_racks:
                raise ValueError(
                    f"fault racks {bad_racks} outside fleet "
                    f"(has racks 0..{self.n_racks - 1})"
                )
            if self.fault.start_s >= self.duration_s:
                raise ValueError(
                    f"fault starts at {self.fault.start_s}s but nodes "
                    f"only run {self.duration_s}s"
                )

    @property
    def n_racks(self) -> int:
        return -(-self.n_nodes // self.rack_size)

    def node_spec(self, node_id: int) -> NodeSpec:
        """Resolve one node's plan from ``(seed, node_id)`` alone."""
        return self.node_run(node_id).node_spec()

    def node_run(self, node_id: int) -> "NodeRun":
        """Everything node ``node_id``'s simulation depends on: the
        fleet's coordinates plus the burst only if it reaches the
        node's rack — a node outside the blast radius is the same run
        as in the no-fault fleet."""
        if not 0 <= node_id < self.n_nodes:
            raise ValueError(f"node_id {node_id} outside fleet")
        fault = self.fault
        if fault is None or node_id // self.rack_size not in fault.racks:
            return NodeRun(
                self.agent, self.seed, node_id, self.rack_size,
                self.duration_s,
            )
        return NodeRun(
            self.agent, self.seed, node_id, self.rack_size, self.duration_s,
            fault_kind=fault.kind,
            intensity=fault.probability,
            fault_start_s=fault.start_s,
            fault_duration_s=fault.duration_s,
        )

    def node_specs(self) -> Tuple[NodeSpec, ...]:
        """All node plans, in node-id order."""
        return tuple(self.node_spec(i) for i in range(self.n_nodes))


@dataclass(frozen=True)
class NodeRun:
    """One node's simulation, named by its inputs alone (DESIGN.md §5).

    What :meth:`FleetConfig.node_run` hands to
    :meth:`~repro.fleet.node.FleetNode.from_run`: the fleet's agent
    setting (``"mixed"`` resolves per node), seed, rack size and
    duration, the node id, and the node's *effective* fault — ``None``
    when no burst reaches its rack.  Equal runs simulate bit-identically
    in any fleet that contains them, so a robustness campaign simulates
    each distinct one once (DESIGN.md §9).

    Attributes:
        agent / seed / rack_size / duration_s: the fleet's settings.
        node_id: the node's index in its fleet.
        fault_kind: :data:`FAULT_KINDS` member, or ``None``.
        intensity: the burst's probability (0.0 without a fault).
        fault_start_s / fault_duration_s: the burst window, seconds.
    """

    agent: str
    seed: int
    node_id: int
    rack_size: int
    duration_s: int
    fault_kind: Optional[str] = None
    intensity: float = 0.0
    fault_start_s: int = 0
    fault_duration_s: int = 0

    def unit_id(self) -> str:
        """Compact identity, e.g. ``harvest/node3/x60s/seed0/k4/baseline``
        (``k``: rack size)."""
        fault = "baseline"
        if self.fault_kind is not None:
            fault = (
                f"{self.fault_kind}@{self.intensity!r}"
                f"[{self.fault_start_s}+{self.fault_duration_s}]"
            )
        return (
            f"{self.agent}/node{self.node_id}/x{self.duration_s}s"
            f"/seed{self.seed}/k{self.rack_size}/{fault}"
        )

    def cache_payload(self) -> Dict[str, Any]:
        """Every coordinate, for :func:`repro.cache.keys.sweep_unit_key`."""
        return {
            "agent": self.agent,
            "seed": self.seed,
            "node_id": self.node_id,
            "rack_size": self.rack_size,
            "duration_s": self.duration_s,
            "fault_kind": self.fault_kind,
            "intensity": self.intensity,
            "fault_start_s": self.fault_start_s,
            "fault_duration_s": self.fault_duration_s,
        }

    def node_spec(self) -> NodeSpec:
        """The node's plan, drawn from ``(seed, node_id)``."""
        rng = _node_plan_rng(self.seed, self.node_id)
        weights = np.array([sku.weight for sku in NODE_SKUS])
        sku = NODE_SKUS[
            int(rng.choice(len(NODE_SKUS), p=weights / weights.sum()))
        ]
        agent = self.agent
        if agent == "mixed":
            agent = AGENT_KINDS[int(rng.choice(len(AGENT_KINDS)))]
        workload = _WORKLOADS_BY_AGENT[agent][
            int(rng.choice(len(_WORKLOADS_BY_AGENT[agent])))
        ]
        return NodeSpec(
            node_id=self.node_id,
            rack=self.node_id // self.rack_size,
            sku=sku,
            agent=agent,
            workload=workload,
            seed=node_seed(self.seed, self.node_id),
        )

    def fault_window_us(self) -> Optional[Tuple[int, int]]:
        """The burst's ``(start_us, end_us)`` on this node, or ``None``."""
        if self.fault_kind is None:
            return None
        start = self.fault_start_s * 1_000_000
        return start, start + self.fault_duration_s * 1_000_000


#: Workload choices per agent kind: the keys, in order, of the builder's
#: registries in :mod:`repro.fleet.node` (``CPU_WORKLOADS``,
#: ``TAILBENCH_WORKLOADS``, ``MEMORY_TRACES``; a test holds them equal).
#: The order feeds ``rng.choice``, so it is part of every fleet digest.
_WORKLOADS_BY_AGENT = {
    "overclock": ("Synthetic", "ObjectStore", "DiskSpeed"),
    "harvest": ("image-dnn", "moses"),
    "memory": ("ObjectStore", "SQL", "SpecJBB"),
}


def node_seed(fleet_seed: int, node_id: int) -> int:
    """The RNG seed for one node: independent of sharding by design."""
    return (fleet_seed << 32) ^ stable_hash(f"fleet.node.{node_id}")


def _node_plan_rng(fleet_seed: int, node_id: int) -> np.random.Generator:
    sequence = np.random.SeedSequence(
        entropy=fleet_seed, spawn_key=(stable_hash(f"fleet.plan.{node_id}"),)
    )
    return np.random.default_rng(sequence)
