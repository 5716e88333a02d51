"""Tests for the cost-sensitive one-against-all classifier."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.costsensitive import CostSensitiveClassifier, asymmetric_core_costs


def test_cost_vector_shape_and_zero_at_truth():
    costs = asymmetric_core_costs(true_class=3, n_classes=6)
    assert costs.shape == (6,)
    assert costs[3] == 0.0


def test_underprediction_costs_more_than_overprediction():
    costs = asymmetric_core_costs(
        true_class=3, n_classes=7, under_cost=4.0, over_cost=1.0
    )
    assert costs[1] == pytest.approx(8.0)   # 2 cores short
    assert costs[5] == pytest.approx(2.0)   # 2 cores extra
    assert costs[1] > costs[5]


def test_true_class_validated():
    with pytest.raises(ValueError):
        asymmetric_core_costs(true_class=9, n_classes=4)


def test_learns_constant_demand():
    rng = np.random.default_rng(1)
    model = CostSensitiveClassifier(n_classes=5, n_features=2,
                                    learning_rate=0.1)
    for _ in range(500):
        features = rng.uniform(0, 1, 2)
        model.update(features, asymmetric_core_costs(2, 5))
    assert model.predict(rng.uniform(0, 1, 2)) == 2


def test_learns_feature_dependent_demand():
    """Class should track a demand level encoded in the features."""
    rng = np.random.default_rng(2)
    model = CostSensitiveClassifier(n_classes=4, n_features=4,
                                    learning_rate=0.1)

    def one_hot(demand):
        features = np.zeros(4)
        features[demand] = 1.0
        return features

    for _ in range(4000):
        demand = int(rng.integers(0, 4))
        model.update(one_hot(demand), asymmetric_core_costs(demand, 4))
    for demand in range(4):
        assert model.predict(one_hot(demand)) == demand


def test_asymmetric_costs_bias_toward_overprediction():
    """With noisy labels, the argmin-cost class errs on the high side."""
    rng = np.random.default_rng(3)
    model = CostSensitiveClassifier(n_classes=8, n_features=1,
                                    learning_rate=0.05)
    # True demand fluctuates 2..4 uniformly; under-cost is much steeper.
    for _ in range(5000):
        demand = int(rng.integers(2, 5))
        model.update([1.0], asymmetric_core_costs(
            demand, 8, under_cost=10.0, over_cost=1.0))
    prediction = model.predict([1.0])
    assert prediction >= 4  # covers the worst case, not the average


def test_cost_vector_shape_validated():
    model = CostSensitiveClassifier(n_classes=3, n_features=1)
    with pytest.raises(ValueError):
        model.update([0.0], [1.0, 2.0])


def test_needs_two_classes():
    with pytest.raises(ValueError):
        CostSensitiveClassifier(n_classes=1, n_features=1)


# -- predict -> update score reuse --------------------------------------------

_N_CLASSES, _N_FEATURES = 5, 4
_any_float = st.floats(allow_nan=True, allow_infinity=True, width=64)
_some_floats = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0), _any_float
)


def _vector(size):
    return st.lists(_some_floats, min_size=size, max_size=size).map(
        lambda values: np.array(values, dtype=float)
    )


def _classifier(weights):
    classifier = CostSensitiveClassifier(_N_CLASSES, _N_FEATURES)
    classifier.weights[:] = weights
    return classifier


@settings(max_examples=300, deadline=None)
@given(
    weights=_vector(_N_CLASSES * (_N_FEATURES + 1)).map(
        lambda w: w.reshape(_N_CLASSES, _N_FEATURES + 1)
    ),
    x=_vector(_N_FEATURES),
    other=_vector(_N_FEATURES),
    costs=_vector(_N_CLASSES),
    between=st.sampled_from(["nothing", "swap", "mutate", "reweight"]),
    clip=st.sampled_from([100.0, 0.5, None]),
)
def test_update_after_predict_equals_an_unmemoized_update(
    weights, x, other, costs, between, clip
):
    """``predict`` keeps its scores for the next ``update``; whatever
    happens between the two calls — nothing, the vector swapped for
    another, the vector written in place, or the weights moved by
    another update — the weights afterwards are bit for bit those of
    an update that never saw a predict."""
    memo, plain = _classifier(weights), _classifier(weights)
    memo.clip_gradient = plain.clip_gradient = clip
    memo_x, plain_x = x.copy(), x.copy()
    with np.errstate(all="ignore"):
        memo.predict(memo_x)
        if between == "swap":
            memo_x, plain_x = other.copy(), other.copy()
        elif between == "mutate":
            memo_x[0] = plain_x[0] = other[0]
        elif between == "reweight":
            memo.update(other.copy(), costs)
            plain.update(other.copy(), costs)
        memo.update(memo_x, costs)
        plain.update(plain_x, costs)
    assert memo.weights.tobytes() == plain.weights.tobytes()

