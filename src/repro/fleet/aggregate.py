"""Order-independent fleet aggregation.

:meth:`FleetAggregate.from_results` sorts node results by id before any
arithmetic, so the aggregate is a pure function of the *set* of results
— identical no matter which worker produced which node or in what order
shards completed.  :meth:`FleetAggregate.digest` hashes the canonical
form; two runs agree iff their digests agree, which is how the tests
pin serial/parallel equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Tuple

from repro.digest import content_digest
from repro.fleet.node import NodeResult

__all__ = ["FleetAggregate"]


@dataclass
class FleetAggregate:
    """Fleet-wide rollup of per-node results.

    ``holes`` lists node ids whose work chunks were quarantined by the
    supervised dispatcher (DESIGN.md §11) — a *partial* aggregate
    reports its gaps explicitly instead of the run dying.  Empty on
    every complete run; a complete run's canonical form (and therefore
    its digest) is unchanged by the field's existence.
    """

    n_nodes: int
    sim_seconds: int
    slo_windows: int
    slo_violations: int
    safeguard_trips: Dict[str, int]
    action_histogram: Dict[str, int]
    by_agent: Dict[str, Dict[str, Any]]
    by_rack: Dict[int, Dict[str, Any]]
    by_sku: Dict[str, int]
    results: List[NodeResult] = field(default_factory=list, repr=False)
    holes: Tuple[int, ...] = ()

    @property
    def partial(self) -> bool:
        """Whether any node is missing from this aggregate."""
        return bool(self.holes)

    @property
    def slo_violation_rate(self) -> float:
        """Fraction of all (node, window) pairs that violated their SLO."""
        if self.slo_windows == 0:
            return 0.0
        return self.slo_violations / self.slo_windows

    @classmethod
    def from_results(
        cls, results: Iterable[NodeResult], holes: Iterable[int] = ()
    ) -> "FleetAggregate":
        """Aggregate ``results`` in any order (canonical node order).

        Every rollup is a sum or a keyed sum, so arrival order cannot
        move a bit.  ``holes`` (node ids quarantined by the supervised
        dispatcher) marks the aggregate partial; no results is legal
        only when every node is a hole — an empty *complete* fleet is
        still a caller bug.

        Raises:
            ValueError: a node id appears twice, or nothing to
                aggregate.
        """
        ordered = sorted(results, key=lambda r: r.node_id)
        holes = tuple(sorted(holes))
        if not ordered and not holes:
            raise ValueError("cannot aggregate an empty fleet")
        if len({r.node_id for r in ordered}) != len(ordered):
            raise ValueError("duplicate node results in aggregation")
        trips = {"model": 0, "actuator": 0}
        histogram = {"model": 0, "default": 0, "none": 0}
        by_agent: Dict[str, Dict[str, Any]] = {}
        by_rack: Dict[int, Dict[str, Any]] = {}
        by_sku: Dict[str, int] = {}
        for result in ordered:
            for key in trips:
                trips[key] += result.safeguard_trips.get(key, 0)
            for key in histogram:
                histogram[key] += result.action_histogram.get(key, 0)
            agent = by_agent.setdefault(
                result.agent,
                {"nodes": 0, "slo_windows": 0, "slo_violations": 0,
                 "safeguard_trips": 0},
            )
            agent["nodes"] += 1
            agent["slo_windows"] += result.slo_windows
            agent["slo_violations"] += result.slo_violations
            agent["safeguard_trips"] += sum(result.safeguard_trips.values())
            rack = by_rack.setdefault(
                result.rack,
                {"nodes": 0, "slo_windows": 0, "slo_violations": 0},
            )
            rack["nodes"] += 1
            rack["slo_windows"] += result.slo_windows
            rack["slo_violations"] += result.slo_violations
            by_sku[result.sku] = by_sku.get(result.sku, 0) + 1
        return cls(
            n_nodes=len(ordered),
            sim_seconds=ordered[0].sim_seconds if ordered else 0,
            slo_windows=sum(r.slo_windows for r in ordered),
            slo_violations=sum(r.slo_violations for r in ordered),
            safeguard_trips=trips,
            action_histogram=histogram,
            by_agent=by_agent,
            by_rack=by_rack,
            by_sku=by_sku,
            results=ordered,
            holes=holes,
        )

    # -- canonical form ------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe canonical form (excludes the raw per-node list).

        ``holes`` appears only when non-empty: a complete aggregate's
        canonical form — and so every committed golden digest and
        conformance vector — is byte-identical to what it was before
        partial aggregates existed.
        """
        canonical: Dict[str, Any] = {
            "n_nodes": self.n_nodes,
            "sim_seconds": self.sim_seconds,
            "slo_windows": self.slo_windows,
            "slo_violations": self.slo_violations,
            "safeguard_trips": dict(sorted(self.safeguard_trips.items())),
            "action_histogram": dict(sorted(self.action_histogram.items())),
            "by_agent": {
                k: dict(sorted(v.items()))
                for k, v in sorted(self.by_agent.items())
            },
            "by_rack": {
                str(k): dict(sorted(v.items()))
                for k, v in sorted(self.by_rack.items())
            },
            "by_sku": dict(sorted(self.by_sku.items())),
            "per_node": [
                {
                    "node_id": r.node_id,
                    "agent": r.agent,
                    "sku": r.sku,
                    "workload": r.workload,
                    "perf_value": repr(r.perf_value),
                    "slo_windows": r.slo_windows,
                    "slo_violations": r.slo_violations,
                    "safeguard_trips": dict(
                        sorted(r.safeguard_trips.items())
                    ),
                    "action_histogram": dict(
                        sorted(r.action_histogram.items())
                    ),
                }
                for r in self.results
            ],
        }
        if self.holes:
            canonical["holes"] = list(self.holes)
        return canonical

    def digest(self) -> str:
        """SHA-256 over the canonical form; equal runs ⇔ equal digests.

        Floats are serialized via ``repr`` so the digest is sensitive to
        every bit of every per-node performance number — the strongest
        practical check that sharding didn't perturb any simulation.
        """
        return content_digest(self.as_dict())

    # -- reporting -----------------------------------------------------------

    def render(self) -> str:
        """Plain-text fleet report."""
        lines = [
            f"== fleet: {self.n_nodes} nodes × {self.sim_seconds}s "
            f"simulated ==",
            f"SLO violation rate: {self.slo_violation_rate:.4f} "
            f"({self.slo_violations}/{self.slo_windows} windows)",
            "safeguard trips: "
            + ", ".join(
                f"{k}={v}" for k, v in sorted(self.safeguard_trips.items())
            ),
            "actions: "
            + ", ".join(
                f"{k}={v}"
                for k, v in sorted(self.action_histogram.items())
            ),
            "sku mix: "
            + ", ".join(
                f"{k}×{v}" for k, v in sorted(self.by_sku.items())
            ),
        ]
        for agent, row in sorted(self.by_agent.items()):
            rate = (
                row["slo_violations"] / row["slo_windows"]
                if row["slo_windows"]
                else 0.0
            )
            lines.append(
                f"  agent {agent}: {row['nodes']} nodes, "
                f"slo-violation {rate:.4f}, "
                f"trips {row['safeguard_trips']}"
            )
        for rack, row in sorted(self.by_rack.items()):
            rate = (
                row["slo_violations"] / row["slo_windows"]
                if row["slo_windows"]
                else 0.0
            )
            lines.append(
                f"  rack {rack}: {row['nodes']} nodes, "
                f"slo-violation {rate:.4f}"
            )
        if self.holes:
            lines.append(
                f"PARTIAL: {len(self.holes)} node(s) quarantined — "
                + ", ".join(f"n{n}" for n in self.holes)
            )
        lines.append(f"digest: {self.digest()}")
        return "\n".join(lines)
