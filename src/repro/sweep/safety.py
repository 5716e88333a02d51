"""The safety scoreboard: per-cell records and the campaign report.

A :class:`SafetyRecord` reduces one cell's fleet simulation to the
quantities the robustness question cares about: did the safeguards
engage, how fast did the fleet fall back to safe behavior, and what did
QoS pay?  Records are plain typed data, pure in the cell's
coordinates.

:class:`CampaignReport` aggregates records order-independently (cells
are sorted by identity before any reduction), computes per-cell deltas
against the matching no-fault baseline cell, renders per-axis
*frontier* tables (safety vs. fault intensity), and exposes a content
digest over the canonical record list — runs with any worker count
agree on the digest iff they agree on every record bit (DESIGN.md §9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.digest import content_digest
from repro.fleet.aggregate import FleetAggregate
from repro.sim.units import SEC
from repro.sweep.units import SweepUnit

__all__ = ["CampaignReport", "SafetyRecord"]


@dataclass(frozen=True)
class SafetyRecord:
    """Safety outcome of one campaign cell.

    Attributes:
        unit_id: canonical cell identity (:meth:`SweepUnit.unit_id`).
        agent / n_nodes / seed / fault_kind / intensity: cell
            coordinates (``fault_kind`` is ``"none"`` on baselines).
        fault_start_s / fault_duration_s / racks: the fault axis's
            window and blast radius (zeros/empty on baselines) — kept
            structurally so frontiers never merge same-kind axes with
            different windows or rack correlation.
        sim_seconds: simulated seconds per node.
        slo_windows / slo_violations: fleet QoS verdict counts.
        safeguard_trips: fleet-wide trigger counts by safeguard.
        action_histogram: actuations by prediction provenance.
        agent_kills / agent_restarts: crash-restart fault bookkeeping.
        affected_nodes: nodes inside the fault blast radius.
        engaged_nodes: affected nodes that fell back (safeguard trigger
            or default/none actuation) after fault onset.
        time_to_fallback_s: seconds from fault onset to the fleet's
            first fallback; ``None`` on baselines or when nothing
            engaged.
        fleet_digest: the underlying fleet aggregate's content digest —
            the strongest per-cell determinism anchor.
    """

    unit_id: str
    agent: str
    n_nodes: int
    seed: int
    fault_kind: str
    intensity: float
    fault_start_s: int
    fault_duration_s: int
    racks: Tuple[int, ...]
    sim_seconds: int
    slo_windows: int
    slo_violations: int
    safeguard_trips: Dict[str, int]
    action_histogram: Dict[str, int]
    agent_kills: int
    agent_restarts: int
    affected_nodes: int
    engaged_nodes: int
    time_to_fallback_s: Optional[float]
    fleet_digest: str

    @property
    def qos_violation_rate(self) -> float:
        if self.slo_windows == 0:
            return 0.0
        return self.slo_violations / self.slo_windows

    @property
    def total_trips(self) -> int:
        return sum(self.safeguard_trips.values())

    @property
    def axis_label(self) -> str:
        """The full fault axis this cell swept: kind, window, racks.

        Frontier tables group by this label (plus agent), so two axes
        of the same *kind* but different windows or rack correlation —
        whose cells are not comparable — never share a table.
        """
        racks = ",".join(str(r) for r in self.racks)
        return (
            f"{self.fault_kind}"
            f"[{self.fault_start_s}+{self.fault_duration_s}]r{racks}"
        )

    @property
    def fallback_share(self) -> float:
        """Fraction of actuations not driven by a live model prediction."""
        total = sum(self.action_histogram.values())
        if total == 0:
            return 0.0
        return (
            self.action_histogram.get("default", 0)
            + self.action_histogram.get("none", 0)
        ) / total

    @classmethod
    def from_fleet(
        cls, unit: SweepUnit, aggregate: FleetAggregate
    ) -> "SafetyRecord":
        """Reduce one cell's fleet aggregate to its safety record."""
        affected = 0
        engagements: List[int] = []
        if not unit.is_baseline:
            onset_us = unit.fault_start_s * SEC
            racks = set(unit.racks)
            for result in aggregate.results:
                if result.rack not in racks:
                    continue
                affected += 1
                # Each node's first engagements count from its fault
                # onset: a node whose warmup already fell back before
                # the fault still counts as engaged when the fault
                # re-engages it.
                candidates = [
                    t
                    for t in (
                        result.first_model_safeguard_us,
                        result.first_actuator_safeguard_us,
                        result.first_fallback_us,
                    )
                    if t is not None
                ]
                if candidates:
                    engagements.append(min(candidates))
            time_to_fallback = (
                (min(engagements) - onset_us) / SEC if engagements else None
            )
        else:
            time_to_fallback = None
        return cls(
            unit_id=unit.unit_id(),
            agent=unit.agent,
            n_nodes=unit.n_nodes,
            seed=unit.seed,
            fault_kind=unit.fault_kind or "none",
            intensity=unit.intensity,
            fault_start_s=unit.fault_start_s,
            fault_duration_s=unit.fault_duration_s,
            racks=tuple(unit.racks),
            sim_seconds=unit.duration_s,
            slo_windows=aggregate.slo_windows,
            slo_violations=aggregate.slo_violations,
            safeguard_trips=dict(sorted(aggregate.safeguard_trips.items())),
            action_histogram=dict(
                sorted(aggregate.action_histogram.items())
            ),
            agent_kills=sum(r.agent_kills for r in aggregate.results),
            agent_restarts=sum(r.agent_restarts for r in aggregate.results),
            affected_nodes=affected,
            engaged_nodes=len(engagements),
            time_to_fallback_s=time_to_fallback,
            fleet_digest=aggregate.digest(),
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe canonical form (floats exact via ``repr``)."""
        return {
            "unit_id": self.unit_id,
            "agent": self.agent,
            "n_nodes": self.n_nodes,
            "seed": self.seed,
            "fault_kind": self.fault_kind,
            "intensity": repr(self.intensity),
            "fault_start_s": self.fault_start_s,
            "fault_duration_s": self.fault_duration_s,
            "racks": list(self.racks),
            "sim_seconds": self.sim_seconds,
            "slo_windows": self.slo_windows,
            "slo_violations": self.slo_violations,
            "safeguard_trips": dict(sorted(self.safeguard_trips.items())),
            "action_histogram": dict(sorted(self.action_histogram.items())),
            "agent_kills": self.agent_kills,
            "agent_restarts": self.agent_restarts,
            "affected_nodes": self.affected_nodes,
            "engaged_nodes": self.engaged_nodes,
            "time_to_fallback_s": (
                None
                if self.time_to_fallback_s is None
                else repr(self.time_to_fallback_s)
            ),
            "fleet_digest": self.fleet_digest,
        }


@dataclass
class CampaignReport:
    """Order-independent rollup of a campaign's safety records.

    Attributes:
        name: campaign name (reporting only; not digested).
        records: every cell's record in canonical (unit-id) order.
        executed / from_cache: how many node runs ran vs. loaded (warm
            runs have ``executed == 0``; excluded from the digest).
        wall_seconds: elapsed campaign wall time (excluded from digest).
        holes: ids of the cells whose records are missing, explicitly,
            because a node run they contain was quarantined by the
            supervised dispatcher (DESIGN.md §11).  The digest covers
            only the records present, so a partial report never
            masquerades as a complete one with different bits; callers
            check :attr:`partial`/:attr:`holes` to tell them apart.
        quarantined: the quarantined node-run ids behind the holes.
    """

    name: str
    records: List[SafetyRecord]
    executed: int = 0
    from_cache: int = 0
    wall_seconds: float = 0.0
    holes: Tuple[str, ...] = ()
    quarantined: Tuple[str, ...] = ()
    _baselines: Dict[Tuple[str, int, int], SafetyRecord] = field(
        init=False, repr=False, default_factory=dict
    )

    @classmethod
    def build(
        cls,
        name: str,
        records: Iterable[SafetyRecord],
        executed: int = 0,
        from_cache: int = 0,
        wall_seconds: float = 0.0,
        holes: Iterable[str] = (),
        quarantined: Iterable[str] = (),
    ) -> "CampaignReport":
        ordered = sorted(records, key=lambda r: r.unit_id)
        ids = [r.unit_id for r in ordered]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate cell records in campaign")
        return cls(
            name=name,
            records=ordered,
            executed=executed,
            from_cache=from_cache,
            wall_seconds=wall_seconds,
            holes=tuple(sorted(holes)),
            quarantined=tuple(sorted(quarantined)),
        )

    @property
    def partial(self) -> bool:
        """Whether any cell is missing from this report."""
        return bool(self.holes)

    def __post_init__(self) -> None:
        for record in self.records:
            if record.fault_kind == "none":
                self._baselines[
                    (record.agent, record.n_nodes, record.seed)
                ] = record

    # -- canonical form ------------------------------------------------------

    def digest(self) -> str:
        """SHA-256 over the canonical record list.

        Depends only on the cell results (sorted by identity) — not on
        the campaign name, worker count, completion order, or cache
        state — so ``--workers 1`` and ``--workers 8``, cold and warm,
        agree bit-for-bit iff every cell agrees.
        """
        return content_digest([record.as_dict() for record in self.records])

    # -- baseline deltas -----------------------------------------------------

    def baseline_for(self, record: SafetyRecord) -> Optional[SafetyRecord]:
        """The no-fault cell this record compares against, if present."""
        return self._baselines.get(
            (record.agent, record.n_nodes, record.seed)
        )

    def deltas(self, record: SafetyRecord) -> Optional[Dict[str, Any]]:
        """Safety deltas of one faulted cell vs. its baseline cell."""
        baseline = self.baseline_for(record)
        if baseline is None or record.fault_kind == "none":
            return None
        action_delta = {
            key: record.action_histogram.get(key, 0)
            - baseline.action_histogram.get(key, 0)
            for key in sorted(
                set(record.action_histogram) | set(baseline.action_histogram)
            )
        }
        return {
            "qos_violation_delta": (
                record.qos_violation_rate - baseline.qos_violation_rate
            ),
            "safeguard_trips_delta": (
                record.total_trips - baseline.total_trips
            ),
            "fallback_share_delta": (
                record.fallback_share - baseline.fallback_share
            ),
            "action_histogram_delta": action_delta,
        }

    # -- frontier ------------------------------------------------------------

    def frontier(self) -> Dict[Tuple[str, str], List[Dict[str, Any]]]:
        """Per-axis robustness frontier: safety vs. fault intensity.

        Keyed by ``(axis_label, agent)`` — the label carries the fault
        kind *and* its window/racks, so two same-kind axes with
        different windows or blast radii never average together.  Each
        value lists one row per intensity (ascending), aggregated
        across scales and seeds: mean QoS-violation rate, mean QoS
        delta vs. baseline, total safeguard trips, mean
        time-to-fallback over engaged cells, and engagement coverage.
        """
        groups: Dict[
            Tuple[str, str], Dict[float, List[SafetyRecord]]
        ] = {}
        for record in self.records:
            if record.fault_kind == "none":
                continue
            axis = groups.setdefault((record.axis_label, record.agent), {})
            axis.setdefault(record.intensity, []).append(record)
        frontier: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
        for key in sorted(groups):
            rows = []
            for intensity in sorted(groups[key]):
                cells = groups[key][intensity]
                deltas = [
                    d for d in (self.deltas(record) for record in cells)
                    if d is not None
                ]
                fallbacks = [
                    record.time_to_fallback_s
                    for record in cells
                    if record.time_to_fallback_s is not None
                ]
                rows.append(
                    {
                        "intensity": intensity,
                        "cells": len(cells),
                        "qos_violation_rate": _mean(
                            [r.qos_violation_rate for r in cells]
                        ),
                        "qos_violation_delta": _mean(
                            [d["qos_violation_delta"] for d in deltas]
                        )
                        if deltas
                        else None,
                        "safeguard_trips": sum(
                            r.total_trips for r in cells
                        ),
                        "fallback_share_delta": _mean(
                            [d["fallback_share_delta"] for d in deltas]
                        )
                        if deltas
                        else None,
                        "time_to_fallback_s": (
                            _mean(fallbacks) if fallbacks else None
                        ),
                        "engaged_nodes": sum(
                            r.engaged_nodes for r in cells
                        ),
                        "affected_nodes": sum(
                            r.affected_nodes for r in cells
                        ),
                        "agent_kills": sum(r.agent_kills for r in cells),
                    }
                )
            frontier[key] = rows
        return frontier

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Plain-text campaign report: cells, frontiers, digest."""
        lines = [
            f"== campaign: {self.name} — {len(self.records)} cells "
            f"(node runs: {self.executed} executed, "
            f"{self.from_cache} cached) ==",
        ]
        if self.holes:
            lines.append(
                f"PARTIAL: {len(self.holes)} cell(s) missing — "
                + ", ".join(self.holes)
            )
            lines.append(
                f"  quarantined node run(s): {', '.join(self.quarantined)}"
            )
        lines.append(
            f"  {'cell':52s} {'qos':>7s} {'Δqos':>7s} {'trips':>5s} "
            f"{'fallback%':>9s} {'ttf_s':>7s}"
        )
        for record in self.records:
            deltas = self.deltas(record)
            delta_qos = (
                f"{deltas['qos_violation_delta']:+7.4f}" if deltas else "      –"
            )
            ttf = (
                f"{record.time_to_fallback_s:7.2f}"
                if record.time_to_fallback_s is not None
                else "      –"
            )
            lines.append(
                f"  {record.unit_id:52s} {record.qos_violation_rate:7.4f} "
                f"{delta_qos} {record.total_trips:5d} "
                f"{record.fallback_share:9.3f} {ttf}"
            )
        for (axis, agent), rows in self.frontier().items():
            lines.append(f"  frontier: fault={axis} agent={agent}")
            lines.append(
                f"    {'intensity':>9s} {'cells':>5s} {'qos':>7s} "
                f"{'Δqos':>7s} {'trips':>5s} {'ttf_s':>7s} "
                f"{'engaged':>9s}"
            )
            for row in rows:
                delta = row["qos_violation_delta"]
                ttf = row["time_to_fallback_s"]
                lines.append(
                    f"    {row['intensity']:9.2f} {row['cells']:5d} "
                    f"{row['qos_violation_rate']:7.4f} "
                    + (f"{delta:+7.4f} " if delta is not None else "      – ")
                    + f"{row['safeguard_trips']:5d} "
                    + (f"{ttf:7.2f} " if ttf is not None else "      – ")
                    + f"{row['engaged_nodes']:4d}/{row['affected_nodes']:<4d}"
                )
        lines.append(f"campaign digest: {self.digest()}")
        return "\n".join(lines)


def _mean(values: List[float]) -> float:
    return sum(values) / len(values)
