"""ML learning-epoch microbenchmarks, runnable against either ML path.

Each benchmark takes an *implementation* namespace exposing
``CostSensitiveClassifier``, ``distributional_features``,
``Hypervisor``, ``HarvestModel`` and ``ThompsonSamplingState`` —
either side of
:data:`repro.conformance.reference.ML_IMPLS` (the vectorized live path
or the frozen pre-vectorization path) — so ``repro bench --suite ml``
can report speedups measured on the same machine in the same process.

The scenarios isolate the 25 ms learning-epoch hot loop this PR
attacks (it became the dominant cost once PR 2 moved the bottleneck out
of the simulation kernel):

* ``csc_predict`` / ``csc_update`` — the cost-sensitive classifier's
  two per-epoch calls.  The seed path paid per-class Python dispatch
  (method calls, ``asarray``/shape checks, list building) nine times
  per call; the vectorized path is one pass over a shared weight
  matrix.
* ``feature_extraction`` — ``distributional_features`` over a
  SmartHarvest-sized window (25 ms / 50 µs = 500 samples).  The seed
  re-reduced the window for ``mean`` and twice more inside ``std``;
  the live path folds them into one shared sum and reuses scratch.
* ``epoch_telemetry`` — ``Hypervisor.sample_usage`` +
  ``max_demand_over`` against a realistic change-point history (the
  25 ms collection pattern).  The seed allocated five arrays per epoch
  and scanned the whole retained horizon for the demand maximum.
* ``harvest_epoch`` — the sum of the above as SmartHarvest runs it: one
  ``HarvestModel`` epoch (collect → validate → commit → update →
  predict) on a warmed node.  Its ns/op is the per-epoch budget the
  fig6 panels and ``fleet.harvest_ms_per_node_s`` are multiples of; the
  frozen side also reduces each window four times and rebuilds the cost
  vector from its label every epoch.
* ``memory_arms`` — SmartMemory's per-epoch arm assignment: one
  Thompson draw over 256 regions × 6 scan-period arms with trained
  posteriors.  The frozen side loops one sampler object per region (256
  scalar ``rng.beta`` calls); the live side makes one ``rng.beta`` call
  over the ``(256, 6)`` state.

Timing uses best-of-``repeats`` wall clock per scenario, like the
kernel suite.
"""

from __future__ import annotations

import time
from typing import Any, Dict

import numpy as np

from repro.agents.harvest.config import HarvestConfig
from repro.ml.costsensitive import asymmetric_core_costs
from repro.perf.microbench import Bench, BenchResult

__all__ = ["ML_MICROBENCHMARKS"]

# SmartHarvest's dimensions: 8 cores -> 9 classes, 9 features, and a
# 25 ms window of 50 µs samples.
_N_CLASSES = 9
_N_FEATURES = 9
_WINDOW_SAMPLES = 500
_EPOCH_US = 25_000
_SAMPLE_PERIOD_US = 50
# A fig7/fig8 SmartMemory node: 256 2 MB regions, 6 scan-period arms.
_MEMORY_REGIONS = 256
_MEMORY_ARMS = 6


def _feature_batch(count: int) -> np.ndarray:
    rng = np.random.default_rng(1234)
    return rng.uniform(0.0, 1.0, size=(count, _N_FEATURES))


def _cost_batch(count: int) -> np.ndarray:
    rng = np.random.default_rng(5678)
    labels = rng.integers(0, _N_CLASSES, size=count)
    return np.stack(
        [asymmetric_core_costs(int(label), _N_CLASSES) for label in labels]
    )


def _trained_classifier(impl: Any) -> Any:
    classifier = impl.CostSensitiveClassifier(
        n_classes=_N_CLASSES, n_features=_N_FEATURES
    )
    for features, costs in zip(_feature_batch(50), _cost_batch(50)):
        classifier.update(features, costs)
    return classifier


def _bench_csc_predict(impl: Any, scale: float) -> BenchResult:
    iters = max(1, int(20_000 * scale))
    classifier = _trained_classifier(impl)
    batch = _feature_batch(256)
    n_batch = len(batch)
    started = time.perf_counter()
    for i in range(iters):
        classifier.predict(batch[i % n_batch])
    return BenchResult("csc_predict", iters, time.perf_counter() - started)


def _bench_csc_update(impl: Any, scale: float) -> BenchResult:
    iters = max(1, int(10_000 * scale))
    classifier = _trained_classifier(impl)
    features = _feature_batch(256)
    costs = _cost_batch(256)
    n_batch = len(features)
    started = time.perf_counter()
    for i in range(iters):
        j = i % n_batch
        classifier.update(features[j], costs[j])
    return BenchResult("csc_update", iters, time.perf_counter() - started)


def _bench_feature_extraction(impl: Any, scale: float) -> BenchResult:
    iters = max(1, int(10_000 * scale))
    rng = np.random.default_rng(42)
    windows = rng.uniform(0.0, 8.0, size=(16, _WINDOW_SAMPLES))
    extract = impl.distributional_features
    started = time.perf_counter()
    for i in range(iters):
        extract(windows[i % 16])
    return BenchResult(
        "feature_extraction", iters, time.perf_counter() - started
    )


class _FakeKernel:
    """A ``.now``-only stand-in; the sampling path needs nothing else."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0


def _bench_epoch_telemetry(impl: Any, scale: float) -> BenchResult:
    # One iteration = one learning epoch: 25 demand change points at
    # 1 ms cadence (a busy TailBench-style primary), then the 500-sample
    # window reconstruction and the ground-truth demand maximum.
    epochs = max(1, int(2_000 * scale))
    kernel = _FakeKernel()
    hypervisor = impl.Hypervisor(
        kernel, n_cores=8, history_horizon_us=1_000_000
    )
    rng = np.random.default_rng(7)
    demands = rng.uniform(0.0, 8.0, size=256)
    noise_rng = np.random.default_rng(11)
    step_us = 1_000
    i = 0
    started = time.perf_counter()
    for _epoch in range(epochs):
        for _change in range(_EPOCH_US // step_us):
            kernel.now += step_us
            hypervisor.set_demand(demands[i % 256])
            i += 1
        hypervisor.sample_usage(
            _EPOCH_US, _SAMPLE_PERIOD_US, rng=noise_rng, noise_cores=0.05
        )
        hypervisor.max_demand_over(_EPOCH_US)
    return BenchResult(
        "epoch_telemetry", epochs, time.perf_counter() - started
    )


def _bench_harvest_epoch(impl: Any, scale: float) -> BenchResult:
    # One iteration = one SmartHarvest learning epoch, the way
    # SolRuntime drives it: the epoch_telemetry demand pattern (25
    # change points), then collect -> validate -> commit -> update ->
    # predict.  Demand stays below the allocation, so every window
    # validates and every epoch learns.
    epochs = max(1, int(2_000 * scale))
    kernel = _FakeKernel()
    hypervisor = impl.Hypervisor(
        kernel, n_cores=8, history_horizon_us=1_000_000
    )
    model = impl.HarvestModel(
        kernel, hypervisor, HarvestConfig(), np.random.default_rng(11)
    )
    demands = np.random.default_rng(7).uniform(0.0, 6.0, size=256)
    step_us = 1_000
    i = 0

    def run_epoch() -> None:
        nonlocal i
        for _change in range(_EPOCH_US // step_us):
            kernel.now += step_us
            hypervisor.set_demand(demands[i % 256])
            i += 1
        window = model.collect_data()
        if model.validate_data(window):
            model.commit_data(kernel.now, window)
        model.update_model()
        model.model_predict()

    for _warm in range(20):  # scratch sized, history full, weights moving
        run_epoch()
    started = time.perf_counter()
    for _epoch in range(epochs):
        run_epoch()
    return BenchResult(
        "harvest_epoch", epochs, time.perf_counter() - started
    )


def _bench_memory_arms(impl: Any, scale: float) -> BenchResult:
    # One iteration = one SmartMemory epoch's arm assignment over every
    # region of a fig7-sized node (256 regions, 6 arms), after 20
    # rewarded epochs so the posteriors are no longer the flat prior.
    epochs = max(1, int(500 * scale))
    bandits = impl.ThompsonSamplingState(
        _MEMORY_REGIONS, _MEMORY_ARMS, np.random.default_rng(3)
    )
    rows = np.arange(_MEMORY_REGIONS)
    outcomes = np.random.default_rng(5)
    for _warm in range(20):
        arms = bandits.sample(rows)
        bandits.update(rows, arms, outcomes.random(_MEMORY_REGIONS) < 0.6)
    started = time.perf_counter()
    for _epoch in range(epochs):
        bandits.sample(rows)
    return BenchResult("memory_arms", epochs, time.perf_counter() - started)


#: Scenario registry: name -> scenario.
ML_MICROBENCHMARKS: Dict[str, Bench] = {
    "csc_predict": _bench_csc_predict,
    "csc_update": _bench_csc_update,
    "feature_extraction": _bench_feature_extraction,
    "epoch_telemetry": _bench_epoch_telemetry,
    "harvest_epoch": _bench_harvest_epoch,
    "memory_arms": _bench_memory_arms,
}
