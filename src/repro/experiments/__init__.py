"""Experiment harness: one work-unit triple per paper table/figure.

Every artifact is an entry of
:data:`repro.experiments.driver.ARTIFACT_SPECS` (see also DESIGN.md §4),
and :func:`repro.experiments.driver.run_artifact` runs any one of them
in-process by name:

===========  =========================================================
Artifact     Where its rows come from
===========  =========================================================
Table 1      :func:`repro.experiments.tables.table1_taxonomy`
Table 2      :func:`repro.experiments.tables.table2_learning_agents`
Figs. 1-4    ``fig{1,2,3,4}_series`` / ``_unit`` / ``_assemble`` in
             :mod:`repro.experiments.overclock`
Fig. 5       :func:`repro.experiments.overclock.fig5_actuator_safeguard`
Fig. 6       ``fig6_{invalid_data,broken_model,delayed_predictions}``
             triples in :mod:`repro.experiments.harvest`
Figs. 7-8    ``fig{7,8}_series`` / ``_unit`` / ``_assemble`` in
             :mod:`repro.experiments.memory`
===========  =========================================================

Every unit runs on a node assembled by :func:`repro.fleet.node.build_node`
on the paper's ``gen5-general`` SKU; :mod:`repro.experiments.common`
adds the helpers that are not construction (``mean_watts``,
``overclock_node``, ``memory_node`` and its ``SloWatcher``).

:mod:`repro.experiments.driver` adds the parallel paths on top: a
:class:`~repro.experiments.driver.FleetDriver` that shards multi-node
fleets (:mod:`repro.fleet`) across worker processes, and
:func:`~repro.experiments.driver.reproduce_all`, which regenerates the
whole table above as ``(artifact, series)`` work units.  Both are
exposed by the ``python -m repro`` command line.
"""

from repro.experiments.common import ExperimentResult, SloWatcher
from repro.experiments.driver import (
    ARTIFACTS,
    ArtifactRun,
    FleetDriver,
    reproduce_all,
    run_artifact,
)
from repro.experiments.overclock import fig5_actuator_safeguard
from repro.experiments.tables import table1_taxonomy, table2_learning_agents

__all__ = [
    "ARTIFACTS",
    "ArtifactRun",
    "ExperimentResult",
    "FleetDriver",
    "reproduce_all",
    "run_artifact",
    "SloWatcher",
    "fig5_actuator_safeguard",
    "table1_taxonomy",
    "table2_learning_agents",
]
