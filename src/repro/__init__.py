"""Reproduction of "SOL: Safe On-Node Learning in Cloud Platforms".

(Wang, Crankshaw, Yadwadkar, Berger, Kozyrakis, Bianchini — ASPLOS 2022,
arXiv:2201.10477.)

Package map:

* :mod:`repro.core` — the SOL framework itself (Model/Actuator API,
  runtime, safeguards).
* :mod:`repro.sim` — the deterministic discrete-event substrate.
* :mod:`repro.node` — the simulated server node (CPU/DVFS, hypervisor,
  two-tier memory, fault injection).
* :mod:`repro.ml` — from-scratch online learners.
* :mod:`repro.agents` — SmartOverclock, SmartHarvest, SmartMemory.
* :mod:`repro.workloads` — the evaluation workloads.
* :mod:`repro.platform` — the paper's agent characterization data plus
  the fleet hardware catalog.
* :mod:`repro.experiments` — regenerates every table and figure; the
  parallel driver (``FleetDriver``, ``reproduce_all``) lives here.
* :mod:`repro.fleet` — multi-node fleets: heterogeneous simulated
  nodes, each with its own kernel, RNG, workload, and agent.
* :mod:`repro.sweep` — declarative robustness campaigns: fault grids
  with a safety scoreboard and per-axis frontier tables.
* :mod:`repro.cli` — the ``python -m repro`` command line.
"""

from importlib import import_module
from typing import Any

__version__ = "0.1.0"

#: Re-exported name -> the module that defines it.  Resolved on first
#: attribute access (PEP 562), so ``import repro.cli`` and the other
#: control-plane modules load neither the simulation nor numpy.
_EXPORTS = {
    "Actuator": "repro.core",
    "Kernel": "repro.sim",
    "Model": "repro.core",
    "Prediction": "repro.core",
    "RngStreams": "repro.sim",
    "SafeguardPolicy": "repro.core",
    "Schedule": "repro.core",
    "SolRuntime": "repro.core",
    "run_agent": "repro.core",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value
