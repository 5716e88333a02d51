"""SmartHarvest's Model half: cost-sensitive core-demand prediction (§5.2).

"The agent uses a cost-sensitive classifier ... to predict the maximum
number of CPU cores needed by the primary VMs in the next 25 ms.  It
collects VM CPU usage data from the hypervisor every 50 µs and computes
distributional features over this data as input to the model."

Safeguards implemented here:

* ``validate_data`` — range checks, plus the crucial full-utilization
  discard: "if the primary VMs use all their allocated cores during a
  learning epoch, it is impossible to distinguish whether they needed
  exactly that many cores, or whether they were under-provisioned ...
  Learning from this CPU telemetry can skew the model and cause it to
  systematically underpredict primary core usage."  (Figure 6 left shows
  exactly that spiral without this check.)
* ``assess_model`` — "measures the percentage of time that predictions
  from the model lead to primary VMs running out of idle cores"; a high
  recent rate fails the assessment (Figure 6 middle).
* ``default_predict`` — a conservative heuristic: cover the maximum
  demand seen over the recent window, plus the safety buffer.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, NamedTuple, Optional

import numpy as np

from repro.agents.harvest.config import HarvestConfig
from repro.core.interfaces import Model
from repro.core.prediction import Prediction
from repro.ml.costsensitive import CostSensitiveClassifier, asymmetric_cost_table
from repro.ml.features import FEATURE_NAMES, FeatureExtractor
from repro.ml.metrics import RollingRate
from repro.node.faults import ModelBreaker
from repro.node.hypervisor import Hypervisor
from repro.sim.kernel import Kernel

__all__ = ["UsageWindow", "HarvestModel"]


class _WindowFields(NamedTuple):
    samples: np.ndarray
    allocated: float
    deficit_cus: float
    lo: float
    hi: float


class UsageWindow(_WindowFields):
    """One collected datapoint: a 25 ms window of 50 µs usage samples.

    Immutable: a tuple, built in one ``tuple.__new__`` (a frozen
    dataclass paid one ``object.__setattr__`` per field, every epoch).

    Attributes:
        samples: usage in cores at each sample instant.
        allocated: cores the primary group had available during the
            window (the ceiling usage can be observed at).
        deficit_cus: vCPU wait accrued during the window (core-µs).
        lo / hi: the window's extremes, reduced once here and shared by
            ``validate_data`` (range check) and ``update_model`` (the
            label).  ``np.minimum/maximum.reduce`` are the primitives
            behind ``ndarray.min/max``: same value, and a NaN sample
            makes both NaN.  An empty window has no extremes; NaN there
            too, so it fails every range check.
    """

    __slots__ = ()

    def __new__(
        cls, samples: np.ndarray, allocated: float, deficit_cus: float
    ) -> "UsageWindow":
        if samples.size:
            lo = float(np.minimum.reduce(samples))
            hi = float(np.maximum.reduce(samples))
        else:
            lo = hi = math.nan
        return tuple.__new__(cls, (samples, allocated, deficit_cus, lo, hi))


class HarvestModel(Model):
    """Max-core-demand prediction over hypervisor usage telemetry.

    Args:
        kernel: simulation kernel.
        hypervisor: telemetry source (usage sampling + wait accounting).
        config: agent parameters.
        rng: random stream for telemetry measurement noise.
        breaker: optional broken-model injector (forces underprediction).
    """

    def __init__(
        self,
        kernel: Kernel,
        hypervisor: Hypervisor,
        config: HarvestConfig,
        rng: np.random.Generator,
        breaker: Optional[ModelBreaker] = None,
    ) -> None:
        self.kernel = kernel
        self.hypervisor = hypervisor
        self.config = config
        self.rng = rng
        self.breaker = breaker

        self.n_classes = hypervisor.n_cores + 1
        self.classifier = CostSensitiveClassifier(
            n_classes=self.n_classes,
            n_features=len(FEATURE_NAMES),
            learning_rate=config.learning_rate,
        )
        self._label_costs = asymmetric_cost_table(
            self.n_classes, config.under_cost, config.over_cost
        )
        self._previous_features: Optional[np.ndarray] = None
        self._latest_features: Optional[np.ndarray] = None
        self._latest_window: Optional[UsageWindow] = None
        # Per-agent extraction scratch: the extractor reuses its sort/
        # deviation buffers across epochs, and the normalized-samples
        # staging buffer below is only read within one extraction call.
        self._extract_features = FeatureExtractor()
        self._scaled_samples = np.empty(0)
        self._recent_maxima: Deque[float] = deque(
            maxlen=config.recent_max_epochs
        )
        self._starvation = RollingRate(
            window=config.starvation_window_epochs,
            min_count=config.starvation_min_epochs,
        )
        _, self._last_deficit_cus = hypervisor.demand_deficit_cus()
        #: fault injectors applied to every raw sample window (the
        #: counter-read boundary, same as CounterReader.add_injector)
        self.injectors: list = []

    # -- Model interface ------------------------------------------------------

    def collect_data(self) -> UsageWindow:
        """Sample the trailing 25 ms usage window from the hypervisor."""
        samples = self.hypervisor.sample_usage(
            window_us=self.config.epoch_us,
            period_us=self.config.sample_period_us,
            rng=self.rng,
            noise_cores=self.config.telemetry_noise_cores,
        )
        for injector in self.injectors:
            samples = injector(samples)
        _, deficit_cus = self.hypervisor.demand_deficit_cus()
        deficit = deficit_cus - self._last_deficit_cus
        self._last_deficit_cus = deficit_cus
        # The starvation statistic behind assess_model is observed on
        # *every* window, including ones validation later discards —
        # the windows where the primary ran out of cores are precisely
        # the capped ones, and the safeguard must see them.
        self._starvation.observe(deficit > 0)
        return UsageWindow(
            samples=samples,
            allocated=self.hypervisor.allocated,
            deficit_cus=deficit,
        )

    def validate_data(self, data: UsageWindow) -> bool:
        """Range checks plus the full-utilization discard (§5.2)."""
        # Written to fail closed: a NaN extreme (a NaN sample, or an
        # empty window) makes every comparison False, which must read
        # as "out of range", not as "no bound violated".
        if not (
            data.lo >= -0.5 and data.hi <= self.hypervisor.n_cores + 0.5
        ):
            return False
        # Full utilization: usage pinned at the allocation ceiling means
        # true demand is right-censored — learning from it biases the
        # model low.  Discard, as in [37].  A window merely *touching*
        # the ceiling (a burst ramp crossing it) still carries usable
        # trend signal, so only windows spending a meaningful fraction
        # of their samples at the ceiling are censored.
        samples = data.samples
        tolerance = 2.5 * self.config.telemetry_noise_cores
        capped = np.count_nonzero(samples >= data.allocated - tolerance)
        # count / n is bit-for-bit the bool mask's mean(): that is an
        # exact f8 sum of 0/1, then the same correctly-rounded division.
        if capped / samples.size > self.config.capped_fraction:
            return False
        return True

    def commit_data(self, time_us: int, data: UsageWindow) -> None:
        self._latest_window = data

    def update_model(self) -> None:
        """Label the previous window with this window's observed peak."""
        window = self._latest_window
        if window is None:
            return
        peak = max(0.0, window.hi)
        label = min(self.n_classes - 1, math.ceil(peak))
        self._recent_maxima.append(peak)
        samples = window.samples
        if self._scaled_samples.size < samples.size:
            self._scaled_samples = np.empty(samples.size)
        scaled = self._scaled_samples[:samples.size]
        np.divide(samples, self.hypervisor.n_cores, out=scaled)
        features = self._extract_features(scaled)
        if self._previous_features is not None:
            self.classifier.update(
                self._previous_features, self._label_costs[label]
            )
        self._previous_features = features
        self._latest_features = features

    def model_predict(self) -> Optional[Prediction[int]]:
        if self._latest_features is None:
            return None
        cores_needed = self.classifier.predict(self._latest_features)
        if self.breaker is not None:
            cores_needed = self.breaker.apply(cores_needed)
        return Prediction.fresh(
            self.kernel,
            int(cores_needed),
            ttl_us=self.config.schedule.prediction_ttl_us,
        )

    def default_predict(self) -> Optional[Prediction[int]]:
        """Cover the worst demand recently seen (conservative fallback)."""
        if not self._recent_maxima:
            # No telemetry at all: safest is to assume the primary needs
            # everything, i.e. harvest nothing.
            value = self.n_classes - 1
        else:
            value = min(
                self.n_classes - 1,
                max(0, math.ceil(max(self._recent_maxima))),
            )
        return Prediction.fresh(
            self.kernel,
            int(value),
            ttl_us=self.config.schedule.prediction_ttl_us,
            is_default=True,
        )

    def assess_model(self) -> bool:
        """Recent rate of 'primary ran out of idle cores' must stay low."""
        rate = self._starvation.rate
        if rate is None:
            return True
        return rate <= self.config.starvation_threshold
