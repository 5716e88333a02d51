"""The golden models: live/frozen implementation pairs, defined once.

The frozen pre-optimization copies (:mod:`~repro.conformance.reference.
kernel`, :mod:`~repro.conformance.reference.ml`,
:mod:`~repro.conformance.reference.workloads`) are *reference
implementations*: trusted-but-slow baselines every optimized path must
reproduce bit-exactly.  Three consumers need the same live/frozen
pairing —

* the conformance differential replay runner, which registers each
  namespace as a :class:`~repro.conformance.registry.ReferenceImpl`
  (``kernel:seed`` …),
* the lockstep bit-identity tests,
* the ``repro bench`` harness (speedup ratios, live vs frozen)

— so the pairing is defined exactly once, here.  The two sides of a
pair expose the same API surface (listed per table below); a second
kernel backend joins by adding itself to :data:`KERNEL_IMPLS` and is
immediately conformance-checkable *and* benchable.

Only the conformance and bench packages may import this one (CI greps
for it): production code never runs a frozen model, and conformance
never imports the bench harness.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Dict

import repro.sim as _live_kernel
from repro.agents.harvest.model import HarvestModel
from repro.conformance.reference import kernel as _seed_kernel
from repro.conformance.reference import ml as _seed_ml
from repro.conformance.reference import workloads as _seed_workloads
from repro.ml.bandits import ThompsonSamplingState
from repro.ml.costsensitive import CostSensitiveClassifier
from repro.ml.features import distributional_features
from repro.node.cpu import CpuModel
from repro.node.hypervisor import Hypervisor
from repro.node.memory import TieredMemory
from repro.workloads.diskspeed import DiskSpeedWorkload
from repro.workloads.objectstore import ObjectStoreWorkload
from repro.workloads.tailbench import TailBenchWorkload
from repro.workloads.traces import ZipfMemoryTrace, zipf_rates

__all__ = ["KERNEL_IMPLS", "ML_IMPLS", "WORKLOADS_IMPLS"]

#: Kernel implementations: ``Kernel``, ``SimQueue``, ``QUEUE_TIMEOUT``.
KERNEL_IMPLS: Dict[str, Any] = {
    "current": _live_kernel,
    "seed": _seed_kernel,
}

#: ML epoch implementations: ``CostSensitiveClassifier``,
#: ``distributional_features``, ``Hypervisor``, the ``HarvestModel``
#: epoch built on them, and SmartMemory's ``ThompsonSamplingState``.
ML_IMPLS: Dict[str, Any] = {
    "current": SimpleNamespace(
        CostSensitiveClassifier=CostSensitiveClassifier,
        distributional_features=distributional_features,
        Hypervisor=Hypervisor,
        HarvestModel=HarvestModel,
        ThompsonSamplingState=ThompsonSamplingState,
    ),
    "seed": _seed_ml,
}

#: Workload/substrate implementations: ``CpuModel``, ``Hypervisor``,
#: ``TieredMemory``, ``TailBenchWorkload``, ``ObjectStoreWorkload``,
#: ``DiskSpeedWorkload``, ``ZipfMemoryTrace``, ``zipf_rates``.
WORKLOADS_IMPLS: Dict[str, Any] = {
    "current": SimpleNamespace(
        CpuModel=CpuModel,
        Hypervisor=Hypervisor,
        TieredMemory=TieredMemory,
        TailBenchWorkload=TailBenchWorkload,
        ObjectStoreWorkload=ObjectStoreWorkload,
        DiskSpeedWorkload=DiskSpeedWorkload,
        ZipfMemoryTrace=ZipfMemoryTrace,
        zipf_rates=zipf_rates,
    ),
    "seed": _seed_workloads,
}
