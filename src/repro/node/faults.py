"""Fault injection — the failure conditions of §3.2, as first-class objects.

The paper evaluates SOL by injecting failures "into the system" (§6.1):

* **bad input data** — out-of-range counter readings (Figure 2, Figure 6
  left): injected at the counter-read boundary via
  :func:`bad_ips_injector` / :func:`bad_usage_injector`;
* **broken models** — a model that consistently selects the worst action
  (Figure 3, Figure 6 middle): injected at the model-output boundary via
  :class:`ModelBreaker`;
* **scheduling delays** — the agent's Model loop is starved for a period
  (Figure 4, Figure 6 right): injected at the loop-scheduling boundary
  via :class:`DelayInjector`, which the SOL runtime consults between
  operations.

Beyond the paper's three, the robustness campaigns (``repro.sweep``)
need failure modes §3.2 only gestures at:

* **telemetry dropout / stale reads** — a wedged telemetry daemon keeps
  serving its last cached value instead of fresh readings
  (:class:`StaleReadInjector`), or a scan batch is lost outright
  (:func:`dropped_batch_injector`);
* **agent crash-restart** — the whole agent process dies and a node
  supervisor later restarts it (``SolRuntime.crash`` / ``restart``,
  scheduled fleet-wide by :func:`repro.fleet.faults.attach_burst`).

Keeping injection at these boundaries matches where production
failures actually enter: the driver, the learner, and the scheduler.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Generic, List, Optional, Tuple, TypeVar

import numpy as np

from repro.node.counters import IntervalMetrics
from repro.node.memory import ScanBatch

__all__ = [
    "bad_ips_injector",
    "bad_usage_injector",
    "dropped_batch_injector",
    "ModelBreaker",
    "DelayInjector",
    "StaleReadInjector",
]

T = TypeVar("T")


def bad_ips_injector(
    rng: np.random.Generator,
    probability: float,
    bad_value: float = 1e9,
) -> Callable[[IntervalMetrics], IntervalMetrics]:
    """Corrupt a fraction of IPS readings with an out-of-range value.

    Reproduces Figure 2's invalid-data experiment: "randomly returning
    out-of-range IPS readings to the agent a fixed percentage of the
    time".  The returned injector plugs into
    :meth:`repro.node.counters.CounterReader.add_injector`.

    Args:
        rng: random stream dedicated to this injector.
        probability: chance each reading is corrupted.
        bad_value: the out-of-range IPS to substitute (default far above
            any feasible ``max_freq · max_IPC`` bound, so range checks
            catch it — the *interesting* case is agents without checks).
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be in [0, 1]")

    def inject(metrics: IntervalMetrics) -> IntervalMetrics:
        if rng.random() < probability:
            return replace(metrics, ips=bad_value)
        return metrics

    return inject


def bad_usage_injector(
    rng: np.random.Generator,
    probability: float,
    scale: float = 0.0,
) -> Callable[[np.ndarray], np.ndarray]:
    """Corrupt CPU-usage sample arrays (SmartHarvest's model input).

    With probability ``probability`` the whole sample window is scaled by
    ``scale`` (default 0: reads as "VM idle"), biasing an unguarded model
    toward underprediction.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be in [0, 1]")

    def inject(samples: np.ndarray) -> np.ndarray:
        if rng.random() < probability:
            return samples * scale
        return samples

    return inject


def stuck_usage_injector(
    rng: np.random.Generator,
    probability: float,
    sentinel: float = -1.0,
) -> Callable[[np.ndarray], np.ndarray]:
    """Misconfigured usage counter: reads return an error sentinel.

    A stuck or misconfigured hypervisor counter returns its error value
    instead of real samples ("telemetry collection can fail in a variety
    of ways — e.g., misconfigured drivers", §3.2).  The sentinel is out
    of physical range, so SmartHarvest's range check ``ValidateData``
    discards it; an unguarded agent instead learns "the primary needs
    zero cores" and harvests the node hollow (Figure 6 left).
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be in [0, 1]")

    def inject(samples: np.ndarray) -> np.ndarray:
        if rng.random() < probability:
            return np.full_like(samples, sentinel)
        return samples

    return inject


class StaleReadInjector(Generic[T]):
    """Telemetry dropout: a fraction of reads return the *last* value.

    Models a wedged telemetry daemon (or a dropped refresh in a polled
    metrics pipeline) that keeps serving its cached reading: with
    probability ``probability`` the consumer receives the most recent
    genuine value again instead of a fresh one.  Works on any read type
    — :class:`~repro.node.counters.IntervalMetrics` at the counter
    boundary, usage-sample arrays at the model boundary (arrays are
    defensively copied so later buffer reuse cannot mutate the stale
    snapshot).

    The first read always passes through (there is nothing stale to
    serve yet); :attr:`stale_reads` counts how many reads were served
    stale.
    """

    def __init__(
        self, rng: np.random.Generator, probability: float
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.rng = rng
        self.probability = probability
        self.stale_reads = 0
        self._last: Optional[T] = None

    def __call__(self, value: T) -> T:
        if self._last is not None and self.rng.random() < self.probability:
            self.stale_reads += 1
            return self._last
        self._last = (
            value.copy() if isinstance(value, np.ndarray) else value
        )
        return value


def dropped_batch_injector(
    rng: np.random.Generator,
    probability: float,
) -> Callable[[ScanBatch], ScanBatch]:
    """Scan-batch telemetry dropout (SmartMemory's collection boundary).

    With probability ``probability`` an entire scan batch is lost — every
    result in it comes back flagged as an error, exactly what a telemetry
    transport dropping a poll cycle looks like to the agent.  SmartMemory's
    ``validate_data`` then discards the batch (all-errored), starving the
    epoch of data until the default-prediction safeguard engages.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be in [0, 1]")

    def inject(batch: ScanBatch) -> ScanBatch:
        if batch and rng.random() < probability:
            return batch.all_errored()
        return batch

    return inject


class ModelBreaker:
    """Switchable model-output override (the "broken model" failures).

    The experiment harness arms the breaker at a chosen simulated time;
    while armed, the agent's model produces ``broken_value`` regardless of
    its learned state.  SmartOverclock's breaker forces the maximum
    frequency (Figure 3); SmartHarvest's forces a prediction of zero
    cores needed (Figure 6 middle).
    """

    def __init__(self, broken_value) -> None:
        self.broken_value = broken_value
        self._armed = False
        self.activations = 0

    @property
    def armed(self) -> bool:
        return self._armed

    def arm(self) -> None:
        """Start overriding model outputs."""
        self._armed = True

    def disarm(self) -> None:
        """Stop overriding; the real model output flows again."""
        self._armed = False

    def apply(self, value):
        """Return the (possibly overridden) model output."""
        if self._armed:
            self.activations += 1
            return self.broken_value
        return value


class DelayInjector:
    """Scheduling-delay plan for an agent loop.

    Holds ``(at_us, duration_us)`` windows.  The SOL runtime asks
    :meth:`pending_delay` between operations; a hit stalls the loop for
    the window's duration, reproducing host-side throttling ("agents will
    be throttled for arbitrary periods of time", §3.2).  One-shot windows
    can also be armed dynamically by experiment triggers (e.g. Figure 4
    injects a 30 s delay exactly when the workload finishes a batch).
    """

    def __init__(self) -> None:
        self._windows: List[Tuple[int, int]] = []
        self._pending: Optional[int] = None
        self.triggered: List[Tuple[int, int]] = []

    def add_window(self, at_us: int, duration_us: int) -> None:
        """Schedule a delay of ``duration_us`` at absolute time ``at_us``."""
        if at_us < 0 or duration_us <= 0:
            raise ValueError("need at_us >= 0 and duration_us > 0")
        self._windows.append((at_us, duration_us))
        self._windows.sort()

    def trigger_now(self, duration_us: int) -> None:
        """Arm a one-shot delay to be consumed at the next check."""
        if duration_us <= 0:
            raise ValueError("duration must be positive")
        self._pending = duration_us

    def pending_delay(self, now_us: int) -> int:
        """Delay (µs) the loop must stall for at ``now_us``; 0 if none.

        Consumes at most one window/trigger per call.
        """
        if self._pending is not None:
            duration, self._pending = self._pending, None
            self.triggered.append((now_us, duration))
            return duration
        while self._windows and self._windows[0][0] <= now_us:
            _at, duration = self._windows.pop(0)
            self.triggered.append((now_us, duration))
            return duration
        return 0
