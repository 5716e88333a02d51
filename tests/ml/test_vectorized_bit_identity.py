"""Bit-identity: the vectorized ML epoch path vs the frozen seed copy.

The vectorized ``CostSensitiveClassifier`` (one weight matrix, rank-1
updates), the folded ``distributional_features`` (shared mean/std sum,
reused scratch), and the buffer-reusing ``Hypervisor.sample_usage``
must reproduce the frozen per-class implementations in
``repro.conformance.reference.ml`` *exactly* — same predictions, same weights,
same telemetry bits — under identical random streams.  Anything less
would silently flip the pinned fleet/artifact digests.

The same holds one level up: the fused ``HarvestModel`` epoch (window
extremes reduced once, capped fraction by count, per-label cost table)
runs in lockstep with the frozen pre-fusion epoch.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.conformance.reference.ml as legacy
from repro.agents.harvest.config import HarvestConfig
from repro.agents.harvest.model import HarvestModel, UsageWindow
from repro.ml.costsensitive import (
    CostSensitiveClassifier,
    asymmetric_core_costs,
    asymmetric_cost_table,
)
from repro.ml.features import FeatureExtractor, distributional_features
from repro.node.faults import stuck_usage_injector
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


# -- the fused harvest epoch vs the frozen pre-fusion epoch ------------------

def _harvest_pair(seed):
    """A live and a frozen (kernel, hypervisor, model), same RNG streams."""
    sides = []
    for hypervisor_cls, model_cls in (
        (Hypervisor, HarvestModel),
        (legacy.Hypervisor, legacy.HarvestModel),
    ):
        kernel = _FakeKernel()
        hypervisor = hypervisor_cls(
            kernel, n_cores=8, history_horizon_us=1_000_000
        )
        model = model_cls(
            kernel, hypervisor, HarvestConfig(), np.random.default_rng(seed)
        )
        model.injectors.append(
            stuck_usage_injector(
                np.random.default_rng(seed + 1), probability=0.05
            )
        )
        sides.append((kernel, hypervisor, model))
    return sides


def test_harvest_epoch_lockstep_1k_epochs():
    """Verdicts, labels, features, weights and predictions agree.

    The demand trace mixes quiet stretches, bursts to the full node and
    harvested allocations the demand runs into, so all three validation
    outcomes (range failure via the stuck-counter sentinel, capped
    discard, accept) and every label a noisy window can carry occur.
    """
    sides = _harvest_pair(seed=21)
    drive = np.random.default_rng(4)
    verdicts = {"accepted": 0, "rejected": 0}
    labels = set()
    for epoch in range(1000):
        burst = drive.random() < 0.15
        changes = [
            (
                int(drive.integers(200, 2_000)),
                float(drive.uniform(5.0, 9.0) if burst
                      else drive.uniform(0.0, 4.0)),
            )
            for _ in range(int(drive.integers(1, 6)))
        ]
        harvested = int(drive.integers(0, 7)) if epoch % 3 == 0 else None
        outcomes = []
        for kernel, hypervisor, model in sides:
            if harvested is not None:
                hypervisor.set_harvested(harvested)
            for advance, demand in changes:
                kernel.now += advance
                hypervisor.set_demand(min(demand, 8.0))
            kernel.now = (epoch + 1) * 25_000
            window = model.collect_data()
            valid = model.validate_data(window)
            prediction = None
            if valid:  # as SolRuntime: a rejected window learns nothing
                model.commit_data(kernel.now, window)
                model.update_model()
                prediction = model.model_predict()
            outcomes.append((window, valid, prediction))
        (live_window, live_valid, live_prediction), (
            frozen_window, frozen_valid, frozen_prediction
        ) = outcomes
        live, frozen = sides[0][2], sides[1][2]
        assert np.array_equal(live_window.samples, frozen_window.samples)
        assert live_window.allocated == frozen_window.allocated
        assert live_window.deficit_cus == frozen_window.deficit_cus
        assert live_valid == frozen_valid, epoch
        assert live_prediction == frozen_prediction, epoch
        assert list(live._recent_maxima) == list(frozen._recent_maxima)
        if live._latest_features is not None:
            assert np.array_equal(
                live._latest_features, frozen._latest_features
            )
        if epoch % 50 == 0:
            assert np.array_equal(
                live.classifier.weights,
                _legacy_weight_matrix(frozen.classifier),
            )
        verdicts["accepted" if live_valid else "rejected"] += 1
        if live._recent_maxima:
            labels.add(min(8, math.ceil(live._recent_maxima[-1])))
    live, frozen = sides[0][2], sides[1][2]
    assert np.array_equal(
        live.classifier.weights, _legacy_weight_matrix(frozen.classifier)
    )
    assert live.classifier.updates == frozen.classifier.updates > 500
    assert live._starvation.rate == frozen._starvation.rate
    # The trace really exercised both verdicts and the label range.
    assert verdicts["accepted"] > 500 and verdicts["rejected"] > 100
    assert labels == set(range(1, 9))  # noise keeps every peak above 0


_window_samples = st.lists(
    st.floats(
        min_value=-2.0, max_value=11.0, allow_nan=False, width=64
    ),
    min_size=0, max_size=64,
)


@settings(max_examples=200, deadline=None)
@given(
    samples=_window_samples,
    allocated=st.sampled_from([1.0, 3.0, 5.0, 8.0]),
    pin=st.floats(min_value=0.0, max_value=1.0),
)
def test_fused_validate_equals_frozen_predicate_on_finite_windows(
    samples, allocated, pin
):
    """For any finite (or empty) window the fail-closed range check and
    the count-based capped fraction give the frozen verdict."""
    live, frozen = (side[2] for side in _harvest_pair(seed=0))
    values = np.array(samples, dtype=float)
    # Pin a prefix at the ceiling so the capped branch is reachable.
    values[: int(pin * values.size)] = allocated
    assert live.validate_data(
        UsageWindow(samples=values, allocated=allocated, deficit_cus=0.0)
    ) == frozen.validate_data(
        legacy.UsageWindow(
            samples=values, allocated=allocated, deficit_cus=0.0
        )
    )


@given(
    n_classes=st.integers(min_value=2, max_value=12),
    under=st.floats(min_value=0.1, max_value=100, allow_nan=False),
    over=st.floats(min_value=0.1, max_value=100, allow_nan=False),
)
def test_cost_table_rows_equal_per_label_vectors(n_classes, under, over):
    table = asymmetric_cost_table(n_classes, under, over)
    assert len(table) == n_classes
    for label, row in enumerate(table):
        assert np.array_equal(
            row, asymmetric_core_costs(label, n_classes, under, over)
        )
        assert not row.flags.writeable
    # Memoised: same-config models share one table.
    assert asymmetric_cost_table(n_classes, under, over) is table
