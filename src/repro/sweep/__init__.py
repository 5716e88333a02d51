"""Declarative robustness campaigns: fault grids with a safety scoreboard.

The paper's evaluation (§6.1) is fundamentally a *campaign*: inject bad
inputs, broken models, and scheduling failures across agents and
scales, then measure how the safeguards hold QoS.  This package
composes the existing primitives — :mod:`repro.node.faults`,
:mod:`repro.fleet.faults`, :class:`~repro.fleet.scenario.FleetScenario`,
the content-addressed result cache, the warm worker pool — into
declarative grids:

* :class:`CampaignSpec` (plain dataclasses + a TOML/dict loader)
  describes a grid over agent kinds × fleet scales × fault plans
  (kind, intensity, window, rack correlation) × seeds;
* :meth:`CampaignSpec.expand` materialises deterministic
  :class:`SweepUnit` cells (plus one no-fault baseline cell per
  ``(agent, scale, seed)`` combination);
* :class:`SweepRunner` simulates each distinct node run of the grid
  once (:class:`~repro.fleet.config.NodeRun`: cells share the nodes of
  smaller fleets and of racks outside a fault's blast radius), through
  the process-wide warm pool and the result cache under the ``sweep::``
  key namespace, so re-running a campaign after editing one axis only
  executes the node runs no cell had before;
* each cell, assembled from its nodes' results, yields a
  :class:`SafetyRecord` (safeguard engagements,
  time-to-fallback, QoS-violation rate, action-histogram deltas vs the
  baseline cell), aggregated into an order-independent
  :class:`CampaignReport` with a content digest and per-axis frontier
  tables (DESIGN.md §9).

Entry point: ``python -m repro sweep run examples/campaigns/<spec>.toml``.
"""

from repro.sweep.runner import SweepRunner
from repro.sweep.safety import CampaignReport, SafetyRecord
from repro.sweep.spec import CampaignSpec, FaultAxis, load_spec, loads_toml
from repro.sweep.units import SweepUnit, run_node, run_unit

__all__ = [
    "CampaignReport",
    "CampaignSpec",
    "FaultAxis",
    "SafetyRecord",
    "SweepRunner",
    "SweepUnit",
    "load_spec",
    "loads_toml",
    "run_node",
    "run_unit",
]
