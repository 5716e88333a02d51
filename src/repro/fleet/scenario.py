"""The fleet scenario: N independent simulated nodes, one config.

:class:`FleetScenario` is deliberately shard-agnostic — it can run any
subset of the fleet's nodes, in any order, because every node's
simulation is sealed by its :class:`~repro.fleet.config.NodeRun`.  The
parallel driver (:class:`repro.experiments.driver.FleetDriver`) simply
calls :meth:`run` with different node-id subsets in different worker
processes and merges the results.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.fleet.aggregate import FleetAggregate
from repro.fleet.config import FleetConfig
from repro.fleet.node import FleetNode, NodeResult

__all__ = ["FleetScenario"]


class FleetScenario:
    """Instantiate and run (a subset of) a configured fleet."""

    def __init__(self, config: FleetConfig) -> None:
        self.config = config

    def build_node(self, node_id: int) -> FleetNode:
        """Construct one node, with its share of any rack-burst fault."""
        return FleetNode.from_run(self.config.node_run(node_id))

    def run(
        self, node_ids: Optional[Sequence[int]] = None
    ) -> List[NodeResult]:
        """Simulate the given nodes (default: all), serially."""
        if node_ids is None:
            node_ids = range(self.config.n_nodes)
        return [self.build_node(i).run() for i in node_ids]

    def run_fleet(self) -> FleetAggregate:
        """Simulate every node serially and aggregate."""
        return FleetAggregate.from_results(self.run())

    def affected_nodes(self) -> Iterable[int]:
        """Node ids inside the fault plan's blast radius (for reports)."""
        return (
            i
            for i in range(self.config.n_nodes)
            if self.config.node_run(i).fault_kind is not None
        )
