"""Scripted Model/Actuator doubles for exercising the SOL runtime."""

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.events import EventKind, EventLog, decode_event
from repro.core.interfaces import Actuator, Model
from repro.core.prediction import Prediction
from repro.sim.kernel import Kernel
from repro.sim.trace import WindowRecorder
from repro.sim.units import SEC


def record_events(
    log: EventLog,
) -> Callable[[EventKind], List[Dict[str, Any]]]:
    """Attach a :class:`WindowRecorder` to ``log``.

    Returns a query: the decoded events of one kind recorded since, in
    time order.
    """
    recorder = WindowRecorder()
    log.attach_tracer(recorder)

    def of_kind(kind: EventKind) -> List[Dict[str, Any]]:
        decoded = map(decode_event, recorder.payloads())
        return [event for event in decoded if event["kind"] == kind.value]

    return of_kind


class ScriptedModel(Model):
    """A model whose every behavior is programmable from the test."""

    def __init__(
        self,
        kernel: Kernel,
        data_source: Optional[Callable[[], float]] = None,
        validator: Optional[Callable[[float], bool]] = None,
        predictor: Optional[Callable[[], Optional[float]]] = None,
        default: Optional[Callable[[], Optional[float]]] = None,
        assessor: Optional[Callable[[], bool]] = None,
        ttl_us: int = 2 * SEC,
        default_ttl_us: Optional[int] = None,
    ) -> None:
        self.kernel = kernel
        self.data_source = data_source or (lambda: 1.0)
        self.validator = validator or (lambda _data: True)
        self.predictor = predictor or (lambda: 42.0)
        self.default = default if default is not None else (lambda: 0.0)
        self.assessor = assessor or (lambda: True)
        self.ttl_us = ttl_us
        self.default_ttl_us = default_ttl_us or ttl_us

        self.collected: List[float] = []
        self.committed: List[Tuple[int, float]] = []
        self.updates = 0
        self.assessments = 0

    def collect_data(self) -> float:
        value = self.data_source()
        self.collected.append(value)
        return value

    def validate_data(self, data: float) -> bool:
        return self.validator(data)

    def commit_data(self, time_us: int, data: float) -> None:
        self.committed.append((time_us, data))

    def update_model(self) -> None:
        self.updates += 1

    def model_predict(self) -> Optional[Prediction]:
        value = self.predictor()
        if value is None:
            return None
        return Prediction.fresh(self.kernel, value, ttl_us=self.ttl_us)

    def default_predict(self) -> Optional[Prediction]:
        value = self.default()
        if value is None:
            return None
        return Prediction.fresh(
            self.kernel, value, ttl_us=self.default_ttl_us, is_default=True
        )

    def assess_model(self) -> bool:
        self.assessments += 1
        return self.assessor()


class RecordingActuator(Actuator):
    """Records every runtime callback with its simulated timestamp."""

    def __init__(
        self,
        kernel: Kernel,
        performance: Optional[Callable[[], bool]] = None,
        action_error: Optional[Exception] = None,
    ) -> None:
        self.kernel = kernel
        self.performance = performance or (lambda: True)
        self.action_error = action_error
        self.actions: List[Tuple[int, Optional[float], Optional[bool]]] = []
        self.mitigations: List[int] = []
        self.cleanups = 0

    def take_action(self, prediction: Optional[Prediction]) -> None:
        if self.action_error is not None:
            raise self.action_error
        if prediction is None:
            self.actions.append((self.kernel.now, None, None))
        else:
            self.actions.append(
                (self.kernel.now, prediction.value, prediction.is_default)
            )

    def assess_performance(self) -> bool:
        return self.performance()

    def mitigate(self) -> None:
        self.mitigations.append(self.kernel.now)

    def clean_up(self) -> None:
        self.cleanups += 1
