"""Frozen copy of the pre-vectorization ML epoch hot path.

This module is the ``ml:seed`` *golden model*, exactly as
:mod:`repro.conformance.reference.kernel` is for the kernel: the
conformance runner and the ``repro bench --suite ml`` microbenchmarks
run the same epoch workload against this implementation and against the
live :mod:`repro.ml` / :mod:`repro.node.hypervisor`.  Keeping the frozen
path in-tree makes the claimed speedups reproducible on any machine
forever, and gives the bit-identity property tests
(``tests/ml/test_vectorized_bit_identity.py``) a reference that cannot
drift.

Never import this from production code.  It intentionally preserves the
pre-vectorization inefficiencies: one ``OnlineLinearRegression`` object
per class (per-class method dispatch, ``asarray``/shape checks, list
building on every predict/update), multi-pass distributional features
(``mean``/``std`` each re-reducing the window), and per-call
``np.empty``/noise/clip allocation in ``Hypervisor.sample_usage``.

:class:`HarvestModel` is the one piece frozen later: the SmartHarvest
learning epoch as it stood before the window reductions were fused
(``min``, ``max``, a bool ``mean`` and a second ``max`` per window, the
cost vector rebuilt from its label every epoch), wired to the frozen
pieces above so the ``ml/harvest_epoch`` row and its lockstep test
compare whole epochs.

:class:`ThompsonSamplingState` is SmartMemory's bandit as it stood
before the array state: one :class:`BetaThompsonSampler` object per
region, sampled and rewarded in a Python loop (one scalar ``rng.beta``
call per region per epoch), behind the live class's API so the
``ml/memory_arms`` row and the lockstep test in
``tests/ml/test_bandits.py`` drive both sides alike.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Sequence

import numpy as np

from repro.agents.harvest.config import HarvestConfig
from repro.core.prediction import Prediction
from repro.ml.costsensitive import asymmetric_core_costs
from repro.ml.features import FEATURE_NAMES
from repro.ml.metrics import RollingRate
from repro.ml.quantiles import percentile_of_sorted
from repro.node.hypervisor import HypervisorSnapshot

__all__ = [
    "BetaThompsonSampler",
    "CostSensitiveClassifier",
    "HarvestModel",
    "Hypervisor",
    "OnlineLinearRegression",
    "ThompsonSamplingState",
    "UsageWindow",
    "distributional_features",
]


class OnlineLinearRegression:
    """Seed per-class regressor (see :mod:`repro.ml.linear` history)."""

    def __init__(
        self,
        n_features: int,
        learning_rate: float = 0.05,
        l2: float = 0.0,
        clip_gradient: Optional[float] = 100.0,
    ) -> None:
        if n_features <= 0:
            raise ValueError("n_features must be positive")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if l2 < 0:
            raise ValueError("l2 must be non-negative")
        self.n_features = n_features
        self.learning_rate = learning_rate
        self.l2 = l2
        self.clip_gradient = clip_gradient
        self.weights = np.zeros(n_features)
        self.bias = 0.0
        self.updates = 0
        self._step_buffer = np.empty(n_features)

    def predict(self, features: Sequence[float]) -> float:
        x = self._check(features)
        return float(self.weights @ x + self.bias)

    def update(self, features: Sequence[float], target: float) -> float:
        x = self._check(features)
        error = float(self.weights @ x + self.bias) - float(target)
        step_error = error
        clip = self.clip_gradient
        if clip is not None:
            step_error = min(max(error, -clip), clip)
        if self.l2:
            self.weights -= self.learning_rate * (
                step_error * x + self.l2 * self.weights
            )
        else:
            step = self._step_buffer
            np.multiply(x, step_error, out=step)
            step *= self.learning_rate
            self.weights -= step
        self.bias -= self.learning_rate * step_error
        self.updates += 1
        return error

    def _check(self, features: Sequence[float]) -> np.ndarray:
        x = np.asarray(features, dtype=float)
        if x.shape != (self.n_features,):
            raise ValueError(
                f"expected {self.n_features} features, got shape {x.shape}"
            )
        return x


class CostSensitiveClassifier:
    """Seed csoaa reduction: one regressor object per class."""

    def __init__(
        self,
        n_classes: int,
        n_features: int,
        learning_rate: float = 0.05,
        l2: float = 0.0,
    ) -> None:
        if n_classes < 2:
            raise ValueError("need at least two classes")
        self.n_classes = n_classes
        self.n_features = n_features
        self._regressors = [
            OnlineLinearRegression(
                n_features, learning_rate=learning_rate, l2=l2
            )
            for _ in range(n_classes)
        ]
        self.updates = 0

    def predicted_costs(self, features: Sequence[float]) -> np.ndarray:
        return np.array(
            [regressor.predict(features) for regressor in self._regressors]
        )

    def predict(self, features: Sequence[float]) -> int:
        return int(np.argmin(self.predicted_costs(features)))

    def update(
        self, features: Sequence[float], costs: Sequence[float]
    ) -> None:
        costs = np.asarray(costs, dtype=float)
        if costs.shape != (self.n_classes,):
            raise ValueError(
                f"expected {self.n_classes} costs, got shape {costs.shape}"
            )
        for regressor, cost in zip(self._regressors, costs):
            regressor.update(features, float(cost))
        self.updates += 1


def distributional_features(samples: np.ndarray) -> np.ndarray:
    """Seed multi-pass feature extraction (fresh arrays every call)."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("need a non-empty 1-D sample window")
    half = samples.size // 2
    if half > 0:
        trend = float(samples[half:].mean() - samples[:half].mean())
    else:
        trend = 0.0
    ordered = np.sort(samples)
    return np.array(
        [
            float(samples.mean()),
            float(samples.std()),
            float(ordered[0]),
            percentile_of_sorted(ordered, 50),
            percentile_of_sorted(ordered, 90),
            percentile_of_sorted(ordered, 99),
            float(ordered[-1]),
            float(samples[-1]),
            trend,
        ]
    )


class Hypervisor:
    """Seed telemetry-sampling path (list history, per-call allocation).

    Only the pieces the ML epoch microbenchmarks exercise are kept:
    demand/allocation change points, trailing-window usage
    reconstruction, the ground-truth demand maximum, and the cumulative
    integrals :class:`HarvestModel` reads.  ``kernel`` only needs a
    ``.now`` attribute.
    """

    def __init__(
        self,
        kernel,
        n_cores: int = 8,
        history_horizon_us: int = 500_000,
    ) -> None:
        if n_cores <= 0:
            raise ValueError("n_cores must be positive")
        self.kernel = kernel
        self.n_cores = n_cores
        self._horizon = history_horizon_us
        self._demand = 0.0
        self._allocated = float(n_cores)
        self._history: list = []
        self._segment_start = kernel.now
        self._demand_cus = 0.0
        self._usage_cus = 0.0
        self._deficit_cus = 0.0
        self._elastic_cus = 0.0
        self._last_accrue_us = kernel.now

    @property
    def allocated(self) -> float:
        return self._allocated

    def set_demand(self, cores: float) -> None:
        if cores < 0:
            raise ValueError("demand must be non-negative")
        self._change(demand=min(float(cores), float(self.n_cores)))

    def set_harvested(self, cores: int) -> int:
        applied = max(0, min(int(cores), self.n_cores))
        self._change(allocated=float(self.n_cores - applied))
        return applied

    def snapshot(self) -> HypervisorSnapshot:
        self._accrue()
        return HypervisorSnapshot(
            time_us=self.kernel.now,
            demand_cus=self._demand_cus,
            usage_cus=self._usage_cus,
            deficit_cus=self._deficit_cus,
            elastic_cus=self._elastic_cus,
        )

    def sample_usage(
        self,
        window_us: int,
        period_us: int,
        rng: Optional[np.random.Generator] = None,
        noise_cores: float = 0.0,
    ) -> np.ndarray:
        if period_us <= 0 or window_us <= 0:
            raise ValueError("window and period must be positive")
        now = self.kernel.now
        start = max(0, now - window_us)
        size = (now - start + period_us - 1) // period_us
        if size <= 0:
            return np.zeros(0)
        demand = np.empty(size)
        allocated = np.empty(size)
        index = 0
        for _seg_start, seg_end, seg_demand, seg_alloc in self._segments():
            if index >= size:
                break
            end = (seg_end - start + period_us - 1) // period_us
            if end > index:
                if end > size:
                    end = size
                demand[index:end] = seg_demand
                allocated[index:end] = seg_alloc
                index = end
        if index < size:
            demand[index:] = self._demand
            allocated[index:] = self._allocated
        usage = np.minimum(demand, allocated)
        if rng is not None and noise_cores > 0.0:
            usage = usage + rng.normal(0.0, noise_cores, size=usage.size)
            usage = np.clip(usage, 0.0, allocated)
        return usage

    def max_demand_over(self, window_us: int) -> float:
        now = self.kernel.now
        start = max(0, now - window_us)
        peak = self._demand
        for seg_start, seg_end, seg_demand, _alloc in self._segments():
            if seg_end > start and seg_start < now:
                peak = max(peak, seg_demand)
        return peak

    def _segments(self):
        yield from self._history
        now = self.kernel.now
        if now > self._segment_start:
            yield (self._segment_start, now, self._demand, self._allocated)

    def _change(
        self,
        demand: Optional[float] = None,
        allocated: Optional[float] = None,
    ) -> None:
        self._accrue()
        now = self.kernel.now
        if now > self._segment_start:
            self._history.append(
                (self._segment_start, now, self._demand, self._allocated)
            )
            cutoff = now - self._horizon
            while self._history and self._history[0][1] <= cutoff:
                self._history.pop(0)
        if demand is not None:
            self._demand = demand
        if allocated is not None:
            self._allocated = allocated
        self._segment_start = now

    def _accrue(self) -> None:
        now = self.kernel.now
        elapsed = now - self._last_accrue_us
        if elapsed <= 0:
            return
        self._demand_cus += self._demand * elapsed
        self._usage_cus += min(self._demand, self._allocated) * elapsed
        self._deficit_cus += max(0.0, self._demand - self._allocated) * elapsed
        self._elastic_cus += (self.n_cores - self._allocated) * elapsed
        self._last_accrue_us = now


@dataclass(frozen=True)
class UsageWindow:
    """One collected window, without cached extremes."""

    samples: np.ndarray
    allocated: float
    deficit_cus: float


class HarvestModel:
    """The pre-fusion SmartHarvest epoch over the frozen pieces above.

    ``collect_data → validate_data → commit_data → update_model →
    model_predict`` exactly as :class:`repro.agents.harvest.model.
    HarvestModel` ran them before the fused epoch (minus the fault
    ``breaker`` hook), including the fail-open range check (``min < lo
    or max > hi`` is ``False`` for a NaN window) that the live model no
    longer has.  The cost vector comes from the live
    :func:`~repro.ml.costsensitive.asymmetric_core_costs` — unchanged,
    and the generator of the live table — called once per epoch.
    """

    def __init__(
        self,
        kernel,
        hypervisor: Hypervisor,
        config: HarvestConfig,
        rng: np.random.Generator,
    ) -> None:
        self.kernel = kernel
        self.hypervisor = hypervisor
        self.config = config
        self.rng = rng
        self.n_classes = hypervisor.n_cores + 1
        self.classifier = CostSensitiveClassifier(
            n_classes=self.n_classes,
            n_features=len(FEATURE_NAMES),
            learning_rate=config.learning_rate,
        )
        self._previous_features: Optional[np.ndarray] = None
        self._latest_features: Optional[np.ndarray] = None
        self._latest_window: Optional[UsageWindow] = None
        self._recent_maxima: Deque[float] = deque(
            maxlen=config.recent_max_epochs
        )
        self._starvation = RollingRate(
            window=config.starvation_window_epochs,
            min_count=config.starvation_min_epochs,
        )
        self._last_snapshot = hypervisor.snapshot()
        self.injectors: list = []

    def collect_data(self) -> UsageWindow:
        samples = self.hypervisor.sample_usage(
            window_us=self.config.epoch_us,
            period_us=self.config.sample_period_us,
            rng=self.rng,
            noise_cores=self.config.telemetry_noise_cores,
        )
        for injector in self.injectors:
            samples = injector(samples)
        current = self.hypervisor.snapshot()
        deficit = current.deficit_cus - self._last_snapshot.deficit_cus
        self._last_snapshot = current
        self._starvation.observe(deficit > 0)
        return UsageWindow(
            samples=samples,
            allocated=self.hypervisor.allocated,
            deficit_cus=deficit,
        )

    def validate_data(self, data: UsageWindow) -> bool:
        samples = data.samples
        if samples.size == 0:
            return False
        if samples.min() < -0.5 or samples.max() > self.hypervisor.n_cores + 0.5:
            return False
        tolerance = 2.5 * self.config.telemetry_noise_cores
        capped = samples >= data.allocated - tolerance
        if capped.mean() > self.config.capped_fraction:
            return False
        return True

    def commit_data(self, time_us: int, data: UsageWindow) -> None:
        self._latest_window = data

    def update_model(self) -> None:
        window = self._latest_window
        if window is None:
            return
        peak = max(0.0, float(window.samples.max()))
        label = min(self.n_classes - 1, math.ceil(peak))
        self._recent_maxima.append(peak)
        features = distributional_features(
            window.samples / self.hypervisor.n_cores
        )
        if self._previous_features is not None:
            costs = asymmetric_core_costs(
                label,
                self.n_classes,
                under_cost=self.config.under_cost,
                over_cost=self.config.over_cost,
            )
            self.classifier.update(self._previous_features, costs)
        self._previous_features = features
        self._latest_features = features

    def model_predict(self) -> Optional[Prediction[int]]:
        if self._latest_features is None:
            return None
        cores_needed = self.classifier.predict(self._latest_features)
        return Prediction.fresh(
            self.kernel,
            int(cores_needed),
            ttl_us=self.config.schedule.prediction_ttl_us,
        )


class BetaThompsonSampler:
    """Seed Beta-Bernoulli Thompson sampler: one object per region."""

    def __init__(
        self,
        n_arms: int,
        rng: np.random.Generator,
        prior_alpha: float = 1.0,
        prior_beta: float = 1.0,
    ) -> None:
        if n_arms < 2:
            raise ValueError("need at least two arms")
        if prior_alpha <= 0 or prior_beta <= 0:
            raise ValueError("priors must be positive")
        self.n_arms = n_arms
        self.rng = rng
        self.alpha = np.full(n_arms, float(prior_alpha))
        self.beta = np.full(n_arms, float(prior_beta))
        self.pulls = np.zeros(n_arms, dtype=np.int64)

    def select_arm(self) -> int:
        samples = self.rng.beta(self.alpha, self.beta)
        return int(np.argmax(samples))

    def update(self, arm: int, success: bool) -> None:
        self._check_arm(arm)
        if success:
            self.alpha[arm] += 1.0
        else:
            self.beta[arm] += 1.0
        self.pulls[arm] += 1

    def mean_estimates(self) -> np.ndarray:
        return self.alpha / (self.alpha + self.beta)

    def _check_arm(self, arm: int) -> None:
        if not 0 <= arm < self.n_arms:
            raise ValueError(f"arm {arm} out of range [0, {self.n_arms})")


class ThompsonSamplingState:
    """The seed SmartMemory bandit loop over per-region samplers.

    ``sample`` is the seed ``MemoryModel._assign_arms`` loop, ``update``
    its ``_reward_arms`` loop (Bernoulli outcomes only), and ``means``
    the per-region ``mean_estimates`` that ``_estimate_missed_fraction``
    read.
    """

    def __init__(
        self, n_bandits: int, n_arms: int, rng: np.random.Generator
    ) -> None:
        self.samplers = [
            BetaThompsonSampler(n_arms, rng) for _ in range(n_bandits)
        ]

    def sample(self, rows: np.ndarray) -> np.ndarray:
        arms = np.zeros(len(rows), dtype=int)
        for i, region in enumerate(rows):
            arms[i] = self.samplers[region].select_arm()
        return arms

    def update(
        self, rows: np.ndarray, arms: np.ndarray, reward: np.ndarray
    ) -> None:
        for region, arm, success in zip(rows, arms, reward):
            self.samplers[region].update(int(arm), bool(success))

    def means(self, rows: np.ndarray) -> np.ndarray:
        return np.array(
            [self.samplers[region].mean_estimates() for region in rows]
        )
