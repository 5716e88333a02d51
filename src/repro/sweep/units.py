"""Sweep cells and the node runs they are made of.

A :class:`SweepUnit` is a fully-resolved campaign cell — agent kind,
fleet scale, seed, and fault coordinates.  Its identity
(:meth:`SweepUnit.unit_id`) depends only on those coordinates, *never*
on the campaign name or the position in the grid.

A cell's result is a function of its nodes' results, and each node's
result depends only on its :class:`~repro.fleet.config.NodeRun`
(:meth:`SweepUnit.node_runs`).  The sweep's work unit is therefore the
distinct node run: :func:`run_node` is the worker entry point, and a
node run's cache address (:func:`repro.cache.keys.sweep_unit_key` over
:meth:`~repro.fleet.config.NodeRun.cache_payload`) is shared by every
cell — in any campaign — that contains it.  A node run's result, cached
and journaled as is, is the node's :class:`~repro.fleet.node.NodeResult`:
its five typed safety fields (three first-engagement times, agent kills
and restarts) are what :meth:`~repro.sweep.safety.SafetyRecord.from_fleet`
reads besides the fleet aggregate.

:func:`run_unit` simulates one whole cell serially and reduces it to a
:class:`~repro.sweep.safety.SafetyRecord`: the per-cell oracle the
node-run path is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.fleet.aggregate import FleetAggregate
from repro.fleet.config import FaultPlan, FleetConfig, NodeRun
from repro.fleet.node import FleetNode, NodeResult
from repro.fleet.scenario import FleetScenario

__all__ = ["SweepUnit", "run_node", "run_unit"]


@dataclass(frozen=True)
class SweepUnit:
    """One cell of a campaign grid (baseline when ``fault_kind`` is None).

    Attributes:
        agent: agent kind (or ``"mixed"``).
        n_nodes: fleet scale.
        seed: fleet master seed.
        duration_s: simulated seconds per node.
        rack_size: nodes per rack (fault blast radius).
        fault_kind: :data:`repro.fleet.config.FAULT_KINDS` member, or
            ``None`` for the no-fault baseline cell.
        intensity: fault intensity (0.0 on baseline cells).
        fault_start_s / fault_duration_s: burst window, seconds.
        racks: rack indices hit by the burst.
    """

    agent: str
    n_nodes: int
    seed: int
    duration_s: int
    rack_size: int
    fault_kind: Optional[str] = None
    intensity: float = 0.0
    fault_start_s: int = 0
    fault_duration_s: int = 0
    racks: Tuple[int, ...] = ()

    @property
    def is_baseline(self) -> bool:
        return self.fault_kind is None

    def unit_id(self) -> str:
        """Canonical human-readable cell identity."""
        if self.fault_kind is None:
            fault = "baseline"
        else:
            racks = ",".join(str(r) for r in self.racks)
            fault = (
                f"{self.fault_kind}@{self.intensity!r}"
                f"[{self.fault_start_s}+{self.fault_duration_s}]r{racks}"
            )
        return (
            f"{self.agent}/n{self.n_nodes}/x{self.duration_s}s"
            f"/seed{self.seed}/{fault}"
        )

    def sort_key(self) -> Tuple:
        """Deterministic canonical grid order."""
        return (
            self.agent,
            self.n_nodes,
            self.seed,
            self.fault_kind or "",
            self.intensity,
            self.fault_start_s,
            self.fault_duration_s,
            self.racks,
        )

    def cache_payload(self) -> Dict[str, Any]:
        """Everything the cell's result can depend on.

        Campaign-independent by design: the campaign name and grid
        position are absent.  The sweep caches node runs, not cells
        (:meth:`~repro.fleet.config.NodeRun.cache_payload`).
        """
        return {
            "agent": self.agent,
            "n_nodes": self.n_nodes,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "rack_size": self.rack_size,
            "fault_kind": self.fault_kind,
            "intensity": self.intensity,
            "fault_start_s": self.fault_start_s,
            "fault_duration_s": self.fault_duration_s,
            "racks": list(self.racks),
        }

    def fleet_config(self) -> FleetConfig:
        """The cell's fully-resolved fleet configuration."""
        fault = None
        if self.fault_kind is not None:
            fault = FaultPlan(
                racks=self.racks,
                start_s=self.fault_start_s,
                duration_s=self.fault_duration_s,
                probability=self.intensity,
                kind=self.fault_kind,
            )
        return FleetConfig(
            n_nodes=self.n_nodes,
            agent=self.agent,
            seed=self.seed,
            duration_s=self.duration_s,
            rack_size=self.rack_size,
            fault=fault,
        )

    def node_runs(self) -> Tuple[NodeRun, ...]:
        """The cell's nodes, in node-id order."""
        config = self.fleet_config()
        return tuple(config.node_run(i) for i in range(self.n_nodes))


def run_node(run: NodeRun) -> NodeResult:
    """Simulate one node run.

    Pure in the run's coordinates (DESIGN.md §5), so any worker, in any
    order, produces a bit-identical result.
    """
    return FleetNode.from_run(run).run()


def run_unit(unit: SweepUnit) -> "SafetyRecord":
    """Simulate one whole cell and reduce it to its safety record.

    The per-cell oracle: :class:`~repro.sweep.runner.SweepRunner`
    assembles the same record from the cell's node runs.
    """
    from repro.sweep.safety import SafetyRecord

    aggregate = FleetAggregate.from_results(
        FleetScenario(unit.fleet_config()).run()
    )
    return SafetyRecord.from_fleet(unit, aggregate)
