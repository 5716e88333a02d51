"""The SOL runtime: scheduling and execution of agent functions (§4.2).

"Internally, SOL maintains two separate control loops running in separate
threads.  The Model control loop collects data, updates the model, and
produces predictions to a message queue.  The Actuator control loop
consumes predictions from this queue when available and periodically
takes a control action and monitors the end-to-end scenario performance."

Here the two loops are simulated processes on the deterministic kernel
(the threading substitution is documented in DESIGN.md §2).  Everything
else follows the paper:

* the Model loop runs learning *epochs*: collect → validate → commit,
  then update + predict, short-circuiting to a default prediction when
  the epoch deadline passes without enough valid data;
* model assessment runs every K epochs; while it fails, real predictions
  are intercepted and defaults forwarded, so the model can recover
  without its mistakes reaching the Actuator;
* the Actuator loop waits on the prediction queue with a bounded
  timeout, drops expired predictions, and always calls ``take_action``
  (possibly with ``None``) so control actions have a bounded period;
* a watchdog loop periodically runs ``assess_performance``; while it
  fails the Actuator is halted and ``mitigate`` is invoked;
* ``terminate`` is the SRE path: kill both loops and run the idempotent
  ``clean_up``.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.core.events import EventKind, EventLog
from repro.core.interfaces import Actuator, Model
from repro.core.prediction import Prediction
from repro.core.safeguards import SafeguardPolicy, SafeguardState
from repro.core.schedule import Schedule
from repro.node.faults import DelayInjector
from repro.sim.kernel import Kernel, Process
from repro.sim.queue import QUEUE_TIMEOUT, SimQueue

__all__ = ["SolRuntime", "run_agent"]


class SolRuntime:
    """Owns and schedules one agent's Model and Actuator loops.

    Args:
        kernel: simulation kernel.
        model: the agent's learning half.
        actuator: the agent's control half.
        schedule: timing parameters (paper Listing 3).
        name: agent name used in the event log.
        policy: safeguard ablation switches (default: all enabled).
        model_delays: optional scheduling-delay injector for the Model
            loop (reproduces host-side throttling).
        actuator_delays: optional delay injector for the Actuator loop.
    """

    def __init__(
        self,
        kernel: Kernel,
        model: Model,
        actuator: Actuator,
        schedule: Schedule,
        name: str = "agent",
        policy: SafeguardPolicy = SafeguardPolicy.all_enabled(),
        model_delays: Optional[DelayInjector] = None,
        actuator_delays: Optional[DelayInjector] = None,
    ) -> None:
        self.kernel = kernel
        self.model = model
        self.actuator = actuator
        self.schedule = schedule
        self.name = name
        self.policy = policy
        self.model_delays = model_delays
        self.actuator_delays = actuator_delays

        self.queue: SimQueue = SimQueue(
            kernel, capacity=1, name=f"{name}.predictions"
        )
        self.log = EventLog(kernel, agent=name)
        self.model_safeguard = SafeguardState(self.log, "model")
        self.actuator_safeguard = SafeguardState(self.log, "actuator")

        self.epochs = 0
        self.default_predictions = 0
        #: actuations by prediction provenance (none: timeout or expiry)
        self.actions = {"model": 0, "default": 0, "none": 0}
        #: the first default/none actuation at or after fallback_from_us
        #: (a fault onset: warmup fallbacks before it do not count)
        self.fallback_from_us = 0
        self.first_fallback_us: Optional[int] = None
        self._processes: List[Process] = []
        self._started = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "SolRuntime":
        """Spawn the Model, Actuator, and watchdog loops; returns self."""
        if self._started:
            raise RuntimeError(f"agent {self.name!r} already started")
        self._started = True
        self._processes = self._spawn_loops()
        return self

    def _spawn_loops(self) -> List[Process]:
        processes = [
            self.kernel.spawn(self._model_loop(), name=f"{self.name}.model"),
            self.kernel.spawn(
                self._actuator_loop(), name=f"{self.name}.actuator"
            ),
        ]
        if self.policy.assess_actuator:
            processes.append(
                self.kernel.spawn(
                    self._watchdog_loop(), name=f"{self.name}.watchdog"
                )
            )
        return processes

    def crash(self) -> None:
        """Simulated agent-process crash: every loop dies mid-flight.

        Unlike :meth:`terminate`, *nothing* is cleaned up — the node
        keeps running under the agent's last actuation, exactly as a
        production node would after its agent process segfaults.  A node
        supervisor can later :meth:`restart` the agent.
        """
        for process in self._processes:
            process.kill()
        self.log.record(EventKind.AGENT_KILLED)

    def restart(self) -> "SolRuntime":
        """Supervisor restart after a :meth:`crash` (or ``terminate``).

        Respawns the loops on the same Model/Actuator instances — the
        in-memory learned state survives, as it does for supervisors
        that snapshot/restore or share state out-of-process.  Raises if
        any loop is still alive.
        """
        if not self._started:
            raise RuntimeError(
                f"agent {self.name!r} was never started; call start()"
            )
        if self.running:
            raise RuntimeError(f"agent {self.name!r} is still running")
        self._processes = self._spawn_loops()
        self.log.record(EventKind.AGENT_RESTARTED)
        return self

    def terminate(self) -> None:
        """The SRE path: stop the agent and restore a clean node state.

        Kills both loops (even mid-epoch) and invokes the idempotent
        ``Actuator.clean_up``.  Safe to call at any time, repeatedly.
        """
        for process in self._processes:
            process.kill()
        self.actuator.clean_up()
        self.log.record(EventKind.CLEANUP)

    @property
    def running(self) -> bool:
        """Whether any agent loop is still alive."""
        return any(process.alive for process in self._processes)

    # -- reporting -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Counters the experiments and tests report on."""
        return {
            "epochs": self.epochs,
            "predictions_sent": self.log.count(EventKind.PREDICTION_SENT),
            "default_predictions": self.default_predictions,
            "validation_failures": self.log.count(EventKind.VALIDATION_FAILED),
            "interceptions": self.log.count(EventKind.PREDICTION_INTERCEPTED),
            "short_circuits": self.log.count(EventKind.EPOCH_SHORT_CIRCUIT),
            "actuations": self.log.count(EventKind.ACTUATION),
            "actuation_timeouts": self.log.count(EventKind.ACTUATION_TIMEOUT),
            "expired_predictions": self.log.count(EventKind.PREDICTION_EXPIRED),
            "mitigations": self.log.count(EventKind.MITIGATION),
            "model_crashes": self.log.count(EventKind.MODEL_CRASH),
            "actuator_crashes": self.log.count(EventKind.ACTUATOR_CRASH),
            "agent_kills": self.log.count(EventKind.AGENT_KILLED),
            "agent_restarts": self.log.count(EventKind.AGENT_RESTARTED),
            "model_safeguard_triggers": self.model_safeguard.trigger_count,
            "actuator_safeguard_triggers": self.actuator_safeguard.trigger_count,
            "model_safeguard_duration_us": (
                self.model_safeguard.active_duration_us()
            ),
            "actuator_safeguard_duration_us": (
                self.actuator_safeguard.active_duration_us()
            ),
        }

    # -- model loop ------------------------------------------------------------

    def _model_loop(self) -> Generator[Any, Any, None]:
        while True:
            self.epochs += 1
            epoch_start = self.kernel.now
            self.log.record(EventKind.EPOCH_START, epoch=self.epochs)
            valid, crashed = yield from self._collect_phase(epoch_start)
            prediction = self._conclude_epoch(valid, crashed)
            if prediction is not None:
                self.queue.put(prediction)
                if prediction.is_default:
                    self.default_predictions += 1
                self.log.record(
                    EventKind.PREDICTION_SENT,
                    is_default=prediction.is_default,
                    expires_at_us=prediction.expires_at_us,
                    # The predicted value rides along so conformance
                    # traces pin *what* was predicted, not just when —
                    # an off-by-one RNG draw must change the payload.
                    value=prediction.value,
                )

    def _collect_phase(self, epoch_start: int):
        """Collect datapoints until enough are valid or the deadline hits.

        Returns ``(valid_count, crashed)``.
        """
        valid = 0
        collected = 0
        deadline = epoch_start + self.schedule.max_epoch_time_us
        while (
            valid < self.schedule.min_data_per_epoch
            and collected < self.schedule.max_data_per_epoch
        ):
            yield from self._sleep(
                self.schedule.data_collect_interval_us, self.model_delays
            )
            if self.kernel.now > deadline:
                return valid, False
            try:
                data = self.model.collect_data()
            except Exception as error:  # noqa: BLE001 - agent bug isolation
                self.log.record(
                    EventKind.MODEL_CRASH, phase="collect", error=repr(error)
                )
                return valid, True
            collected += 1
            self.log.record(EventKind.DATA_COLLECTED, n=collected)
            if self.policy.validate_data:
                try:
                    data_ok = self.model.validate_data(data)
                except Exception as error:  # noqa: BLE001
                    self.log.record(
                        EventKind.MODEL_CRASH,
                        phase="validate",
                        error=repr(error),
                    )
                    return valid, True
            else:
                data_ok = True
            if data_ok:
                self.model.commit_data(self.kernel.now, data)
                valid += 1
            else:
                self.log.record(EventKind.VALIDATION_FAILED)
        return valid, False

    def _conclude_epoch(
        self, valid: int, crashed: bool
    ) -> Optional[Prediction]:
        """Update/assess/predict, or short-circuit to a default."""
        if crashed:
            return self._default_prediction(reason="model_crash")
        if valid < self.schedule.min_data_per_epoch:
            self.log.record(
                EventKind.EPOCH_SHORT_CIRCUIT,
                reason="insufficient_data",
                valid=valid,
            )
            return self._default_prediction(reason="insufficient_data")
        try:
            self.model.update_model()
            self.log.record(EventKind.MODEL_UPDATED, epoch=self.epochs)
            self._maybe_assess_model()
            prediction = self.model.model_predict()
        except Exception as error:  # noqa: BLE001 - agent bug isolation
            self.log.record(
                EventKind.MODEL_CRASH, phase="update_predict",
                error=repr(error),
            )
            return self._default_prediction(reason="model_crash")
        if prediction is None:
            self.log.record(
                EventKind.EPOCH_SHORT_CIRCUIT, reason="no_model_prediction"
            )
            return self._default_prediction(reason="no_model_prediction")
        if self.model_safeguard.active:
            self.log.record(EventKind.PREDICTION_INTERCEPTED)
            return self._default_prediction(reason="model_unhealthy")
        return prediction

    def _maybe_assess_model(self) -> None:
        if not self.policy.assess_model:
            return
        if self.epochs % self.schedule.assess_model_interval_epochs != 0:
            return
        healthy = self.model.assess_model()
        self.log.record(EventKind.MODEL_ASSESSED, healthy=healthy)
        self.model_safeguard.update(healthy)

    def _default_prediction(self, reason: str) -> Optional[Prediction]:
        try:
            prediction = self.model.default_predict()
        except Exception as error:  # noqa: BLE001 - agent bug isolation
            self.log.record(
                EventKind.MODEL_CRASH, phase="default_predict",
                error=repr(error),
            )
            return None
        if prediction is not None and not prediction.is_default:
            # Normalize provenance so the Actuator and the log can tell
            # model predictions from fallbacks.
            prediction = Prediction(
                value=prediction.value,
                produced_at_us=prediction.produced_at_us,
                expires_at_us=prediction.expires_at_us,
                is_default=True,
            )
        return prediction

    # -- actuator loop ------------------------------------------------------------

    def _actuator_loop(self) -> Generator[Any, Any, None]:
        while True:
            if self.actuator_delays is not None:
                delay = self.actuator_delays.pending_delay(self.kernel.now)
                if delay > 0:
                    self.log.record(
                        EventKind.SCHEDULING_DELAY,
                        loop="actuator",
                        delay_us=delay,
                    )
                    yield delay
            timeout: Optional[int] = self.schedule.max_actuation_delay_us
            if not self.policy.non_blocking_actuator:
                timeout = None  # the paper's blocking strawman
            item = yield from self.queue.get(timeout_us=timeout)
            prediction: Optional[Prediction]
            if item is QUEUE_TIMEOUT:
                prediction = None
                self.log.record(EventKind.ACTUATION_TIMEOUT)
            else:
                prediction = item
                if (
                    self.policy.enforce_expiry
                    and prediction.is_expired(self.kernel.now)
                ):
                    self.log.record(
                        EventKind.PREDICTION_EXPIRED,
                        age_us=self.kernel.now - prediction.produced_at_us,
                    )
                    prediction = None
            if self.actuator_safeguard.active:
                # Halted by the watchdog: no control actions until the
                # unsafe behavior clears (§4.2).
                continue
            try:
                self.actuator.take_action(prediction)
                self._count_action(prediction)
                self.log.record(
                    EventKind.ACTUATION,
                    has_prediction=prediction is not None,
                    is_default=(
                        prediction.is_default if prediction else None
                    ),
                )
            except Exception as error:  # noqa: BLE001 - agent bug isolation
                self.log.record(
                    EventKind.ACTUATOR_CRASH, phase="take_action",
                    error=repr(error),
                )

    def _count_action(self, prediction: Optional[Prediction]) -> None:
        """Bucket one actuation by provenance; stamp the first fallback."""
        if prediction is not None and not prediction.is_default:
            self.actions["model"] += 1
            return
        self.actions["none" if prediction is None else "default"] += 1
        now = self.kernel.now
        if self.first_fallback_us is None and now >= self.fallback_from_us:
            self.first_fallback_us = now

    # -- watchdog loop ------------------------------------------------------------

    def _watchdog_loop(self) -> Generator[Any, Any, None]:
        while True:
            yield self.schedule.assess_actuator_interval_us
            try:
                healthy = self.actuator.assess_performance()
            except Exception as error:  # noqa: BLE001 - agent bug isolation
                self.log.record(
                    EventKind.ACTUATOR_CRASH, phase="assess",
                    error=repr(error),
                )
                healthy = False
            self.log.record(EventKind.ACTUATOR_ASSESSED, healthy=healthy)
            self.actuator_safeguard.update(healthy)
            if healthy:
                continue
            try:
                self.actuator.mitigate()
                self.log.record(EventKind.MITIGATION)
            except Exception as error:  # noqa: BLE001 - agent bug isolation
                self.log.record(
                    EventKind.ACTUATOR_CRASH, phase="mitigate",
                    error=repr(error),
                )

    # -- shared helpers ------------------------------------------------------------

    def _sleep(
        self, duration_us: int, delays: Optional[DelayInjector]
    ) -> Generator[Any, Any, None]:
        """Sleep with throttling injection and timestamp-check logging.

        "SOL detects scheduling delays by inserting various timestamp
        checks in the execution loop" — any injected stall is recorded so
        the log shows exactly when the loop lost its cadence.
        """
        if delays is not None:
            stall = delays.pending_delay(self.kernel.now)
            if stall > 0:
                self.log.record(
                    EventKind.SCHEDULING_DELAY, loop="model", delay_us=stall
                )
                yield stall
        yield duration_us


def run_agent(
    kernel: Kernel,
    model: Model,
    actuator: Actuator,
    schedule: Schedule,
    **kwargs: Any,
) -> SolRuntime:
    """Build and start an agent (the paper's ``SOL::RunAgent``).

    Listing 3 equivalent::

        runtime = run_agent(kernel, OverclockModel(...),
                            OverclockActuator(...), schedule)
        kernel.run(until=600 * SEC)
        print(runtime.stats())
    """
    return SolRuntime(kernel, model, actuator, schedule, **kwargs).start()
