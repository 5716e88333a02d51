"""Tests for distributional feature extraction."""

import numpy as np
import pytest

from repro.ml.features import (
    FEATURE_NAMES,
    FeatureExtractor,
    distributional_features,
)


def test_feature_vector_matches_name_list():
    features = distributional_features(np.arange(100.0))
    assert features.shape == (len(FEATURE_NAMES),)


def test_constant_window():
    features = distributional_features(np.full(50, 3.0))
    named = dict(zip(FEATURE_NAMES, features))
    assert named["mean"] == 3.0
    assert named["std"] == 0.0
    assert named["maximum"] == 3.0
    assert named["trend"] == 0.0


def test_ramp_has_positive_trend():
    features = distributional_features(np.linspace(0, 8, 100))
    named = dict(zip(FEATURE_NAMES, features))
    assert named["trend"] > 0
    assert named["last"] == pytest.approx(8.0)


def test_burst_shows_in_high_percentiles():
    window = np.zeros(200)
    window[-3:] = 8.0  # short burst at the end
    named = dict(zip(FEATURE_NAMES, distributional_features(window)))
    assert named["p50"] == 0.0
    assert named["p99"] == pytest.approx(8.0)
    assert named["maximum"] == 8.0


def test_single_sample_window():
    named = dict(zip(FEATURE_NAMES, distributional_features(np.array([2.0]))))
    assert named["mean"] == 2.0
    assert named["trend"] == 0.0


def test_empty_window_rejected():
    with pytest.raises(ValueError):
        distributional_features(np.array([]))
    with pytest.raises(ValueError):
        distributional_features(np.zeros((2, 2)))


def test_one_extractor_across_window_lengths_matches_np_percentile():
    """The percentile lerp plans are cached per window length: an
    extractor that alternates lengths must still lerp each window at
    its own length's indices, bit for bit as ``np.percentile``."""
    extract = FeatureExtractor()
    rng = np.random.default_rng(4)
    for size in [500, 1, 7, 500, 2, 101, 7, 500, 3]:
        window = rng.uniform(0.0, 8.0, size)
        features = extract(window)
        for slot, q in ((3, 50), (4, 90), (5, 99)):
            want = float(np.percentile(window, q))
            assert features[slot].tobytes() == np.float64(want).tobytes()
