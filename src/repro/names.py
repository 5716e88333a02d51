"""The CLI's choice lists and the rack-size default, declared once in a
leaf (standard library only) so argv parses without the simulation.

:mod:`repro.fleet.config` and :mod:`repro.experiments.driver` import
the same objects; the driver checks ``ARTIFACT_SPECS`` against
:data:`ARTIFACTS`.  Inside the code salt: these values decide results.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["AGENT_KINDS", "ARTIFACTS", "DEFAULT_RACK_SIZE", "FAULT_KINDS"]

#: Paper artifacts, in canonical (paper) order.
ARTIFACTS: Tuple[str, ...] = (
    "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5",
    "fig6-left", "fig6-middle", "fig6-right", "fig7", "fig8",
)

#: Agent kinds a fleet node can run ("mixed" draws one per node).
AGENT_KINDS: Tuple[str, ...] = ("overclock", "harvest", "memory")

#: Correlated fault kinds a :class:`~repro.fleet.config.FaultPlan`
#: injects: invalid telemetry values, telemetry dropout/stale reads, and
#: whole-agent crash-restart (:func:`repro.fleet.faults.attach_burst`).
FAULT_KINDS: Tuple[str, ...] = ("bad_data", "dropout", "crash_restart")

#: Nodes per rack (a fault burst's blast radius) by default.
DEFAULT_RACK_SIZE = 8
