"""SOL: the safe on-node learning framework (the paper's contribution).

Public surface::

    from repro.core import (
        Model, Actuator, Prediction, Schedule, SafeguardPolicy,
        SolRuntime, run_agent, EventKind,
    )
"""

from repro.core.events import EventKind, EventLog
from repro.core.interfaces import Actuator, Model
from repro.core.manager import AgentHealth, AgentManager
from repro.core.prediction import Prediction
from repro.core.runtime import SolRuntime, run_agent
from repro.core.safeguards import SafeguardPolicy, SafeguardState
from repro.core.schedule import Schedule

__all__ = [
    "Actuator",
    "AgentHealth",
    "AgentManager",
    "EventKind",
    "EventLog",
    "Model",
    "Prediction",
    "SafeguardPolicy",
    "SafeguardState",
    "Schedule",
    "SolRuntime",
    "run_agent",
]
