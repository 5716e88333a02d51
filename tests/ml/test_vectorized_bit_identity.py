"""Bit-identity: the vectorized ML epoch path vs the frozen seed copy.

The vectorized ``CostSensitiveClassifier`` (one weight matrix, rank-1
updates), the folded ``distributional_features`` (shared mean/std sum,
reused scratch), and the buffer-reusing ``Hypervisor.sample_usage``
must reproduce the frozen per-class implementations in
``repro.conformance.reference.ml`` *exactly* — same predictions, same weights,
same telemetry bits — under identical random streams.  Anything less
would silently flip the pinned fleet/artifact digests.
"""

import numpy as np
import pytest

import repro.conformance.reference.ml as legacy
from repro.ml.costsensitive import CostSensitiveClassifier, asymmetric_core_costs
from repro.ml.features import FeatureExtractor, distributional_features
from repro.node.hypervisor import Hypervisor

N_CLASSES = 9
N_FEATURES = 9


def _legacy_weight_matrix(classifier: "legacy.CostSensitiveClassifier"):
    """The per-class regressors flattened to the vectorized layout."""
    rows = [
        np.concatenate([reg.weights, [reg.bias]])
        for reg in classifier._regressors
    ]
    return np.stack(rows)


@pytest.mark.parametrize("l2", [0.0, 0.01])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_classifier_lockstep_1k_epochs(seed, l2):
    """Predictions, weights, and update counters agree for 1000 epochs."""
    rng = np.random.default_rng(seed)
    vectorized = CostSensitiveClassifier(
        N_CLASSES, N_FEATURES, learning_rate=0.05, l2=l2
    )
    frozen = legacy.CostSensitiveClassifier(
        N_CLASSES, N_FEATURES, learning_rate=0.05, l2=l2
    )
    for epoch in range(1000):
        features = rng.uniform(-1.0, 1.0, N_FEATURES)
        label = int(rng.integers(0, N_CLASSES))
        costs = asymmetric_core_costs(label, N_CLASSES)
        assert vectorized.predict(features) == frozen.predict(features)
        vectorized.update(features, costs)
        frozen.update(features, costs)
        if epoch % 100 == 0:
            probe = rng.uniform(-1.0, 1.0, N_FEATURES)
            assert np.array_equal(
                vectorized.predicted_costs(probe),
                frozen.predicted_costs(probe),
            )
    assert np.array_equal(vectorized.weights, _legacy_weight_matrix(frozen))
    assert vectorized.updates == frozen.updates == 1000
    assert all(reg.updates == 1000 for reg in frozen._regressors)


def test_classifier_lockstep_with_extreme_targets():
    """Gradient clipping engages identically on absurd cost vectors."""
    rng = np.random.default_rng(7)
    vectorized = CostSensitiveClassifier(N_CLASSES, N_FEATURES)
    frozen = legacy.CostSensitiveClassifier(N_CLASSES, N_FEATURES)
    for _ in range(200):
        features = rng.uniform(-1.0, 1.0, N_FEATURES)
        costs = rng.uniform(-1e9, 1e9, N_CLASSES)
        vectorized.update(features, costs)
        frozen.update(features, costs)
        assert vectorized.predict(features) == frozen.predict(features)
    assert np.array_equal(vectorized.weights, _legacy_weight_matrix(frozen))


def test_features_match_legacy_over_random_windows():
    """Folded mean/std/sort extraction is bit-identical, window by window.

    One shared extractor across all windows proves the reused scratch
    carries no state between calls.
    """
    rng = np.random.default_rng(3)
    extractor = FeatureExtractor()
    for _ in range(300):
        n = int(rng.integers(1, 600))
        scale = float(10.0 ** int(rng.integers(-2, 3)))
        samples = rng.uniform(0.0, 8.0, n) * scale
        assert np.array_equal(
            extractor(samples), legacy.distributional_features(samples)
        )
        assert np.array_equal(
            distributional_features(samples),
            legacy.distributional_features(samples),
        )


def test_feature_vectors_do_not_alias_across_calls():
    """Callers retain feature vectors across epochs (previous vs latest);
    the extractor must hand out a fresh array every call."""
    extractor = FeatureExtractor()
    first = extractor(np.array([1.0, 2.0, 3.0]))
    kept = first.copy()
    extractor(np.array([7.0, 8.0, 9.0, 10.0]))
    assert np.array_equal(first, kept)


class _FakeKernel:
    __slots__ = ("now",)

    def __init__(self):
        self.now = 0


def test_hypervisor_sampling_matches_legacy_bit_for_bit():
    """Buffer-reusing sampling == seed allocation-churn sampling."""
    kernel_live = _FakeKernel()
    kernel_frozen = _FakeKernel()
    live = Hypervisor(kernel_live, n_cores=8, history_horizon_us=1_000_000)
    frozen = legacy.Hypervisor(
        kernel_frozen, n_cores=8, history_horizon_us=1_000_000
    )
    rng_live = np.random.default_rng(11)
    rng_frozen = np.random.default_rng(11)
    drive = np.random.default_rng(5)
    for step in range(400):
        advance = int(drive.integers(100, 2_000))
        kernel_live.now += advance
        kernel_frozen.now += advance
        if drive.random() < 0.8:
            demand = float(drive.uniform(0.0, 8.0))
            live.set_demand(demand)
            frozen.set_demand(demand)
        else:
            harvested = int(drive.integers(0, 8))
            live.set_harvested(harvested)
            frozen.set_harvested(harvested)
        if step % 10 == 0:
            got = live.sample_usage(
                25_000, 50, rng=rng_live, noise_cores=0.05
            )
            want = frozen.sample_usage(
                25_000, 50, rng=rng_frozen, noise_cores=0.05
            )
            assert np.array_equal(got, want)
            assert live.max_demand_over(25_000) == frozen.max_demand_over(
                25_000
            )
            assert live.max_demand_over(2_000_000) == frozen.max_demand_over(
                2_000_000
            )


def test_sample_windows_do_not_alias_across_epochs():
    """Returned windows are retained across epochs by HarvestModel; the
    internal staging buffers must never be handed back to callers."""
    kernel = _FakeKernel()
    hypervisor = Hypervisor(kernel, n_cores=8)
    kernel.now = 30_000
    hypervisor.set_demand(3.0)
    kernel.now = 60_000
    first = hypervisor.sample_usage(25_000, 50)
    kept = first.copy()
    hypervisor.set_demand(7.0)
    kernel.now = 90_000
    hypervisor.sample_usage(25_000, 50)
    assert np.array_equal(first, kept)
