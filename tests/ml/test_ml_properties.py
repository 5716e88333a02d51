"""Property-based tests (hypothesis) for ML substrate invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.bandits import ThompsonSamplingState
from repro.ml.costsensitive import asymmetric_core_costs
from repro.ml.features import distributional_features
from repro.ml.metrics import RollingMean, StreamingMeanVar
from repro.ml.qlearning import QLearner
from repro.sim import RngStreams

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(
    true_class=st.integers(min_value=0, max_value=9),
    under=st.floats(min_value=0.1, max_value=100, allow_nan=False),
    over=st.floats(min_value=0.1, max_value=100, allow_nan=False),
)
def test_cost_vector_minimized_exactly_at_truth(true_class, under, over):
    costs = asymmetric_core_costs(true_class, 10, under, over)
    assert costs.min() == 0.0
    assert int(np.argmin(costs)) == true_class
    assert np.all(costs >= 0.0)


@given(st.lists(finite_floats, min_size=1, max_size=300))
def test_features_are_finite_and_ordered(values):
    features = distributional_features(np.array(values))
    named = dict(
        zip(
            ["mean", "std", "minimum", "p50", "p90", "p99", "maximum",
             "last", "trend"],
            features,
        )
    )
    def le(a, b):
        return a <= b + 1e-9 * max(1.0, abs(a), abs(b))

    assert np.all(np.isfinite(features))
    assert le(named["minimum"], named["p50"]) and le(named["p50"], named["p90"])
    assert le(named["p90"], named["p99"])
    assert le(named["p99"], named["maximum"])
    assert le(named["minimum"], named["mean"]) and le(named["mean"], named["maximum"])


@given(st.lists(finite_floats, min_size=1, max_size=200))
def test_streaming_meanvar_matches_numpy(values):
    stats = StreamingMeanVar()
    for value in values:
        stats.observe(value)
    array = np.array(values)
    assert stats.mean == np.float64(array.mean()).item() or abs(
        stats.mean - array.mean()
    ) <= 1e-6 * max(1.0, abs(array.mean()))
    assert abs(stats.variance - array.var()) <= 1e-4 * max(1.0, array.var())


@given(
    values=st.lists(finite_floats, min_size=1, max_size=100),
    window=st.integers(min_value=1, max_value=20),
)
def test_rolling_mean_equals_tail_mean(values, window):
    rolling = RollingMean(window=window)
    for value in values:
        rolling.observe(value)
    expected = np.mean(values[-window:])
    assert rolling.mean is not None
    assert abs(rolling.mean - expected) <= 1e-6 * max(1.0, abs(expected))


@given(
    rewards=st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=1,
        max_size=100,
    )
)
def test_q_values_stay_bounded_by_reward_range(rewards):
    """With gamma=0 and lr<=1, Q stays within the observed reward hull."""
    learner = QLearner(
        n_actions=2,
        rng=RngStreams(0).get("q"),
        learning_rate=0.5,
        discount=0.0,
        epsilon=0.0,
    )
    for reward in rewards:
        learner.update("s", 0, reward)
    lo, hi = min(min(rewards), 0.0), max(max(rewards), 0.0)
    assert lo - 1e-9 <= learner.q_values("s")[0] <= hi + 1e-9


@given(
    outcomes=st.lists(st.booleans(), min_size=1, max_size=200),
    arm_count=st.integers(min_value=2, max_value=6),
    n_bandits=st.integers(min_value=1, max_value=4),
)
def test_beta_posterior_counts_conserved(outcomes, arm_count, n_bandits):
    """alpha+beta grows by exactly one per update, split by outcome."""
    bandits = ThompsonSamplingState(
        n_bandits, n_arms=arm_count, rng=RngStreams(1).get("ts")
    )
    rng = RngStreams(2).get("arms")
    for outcome in outcomes:
        row = np.array([int(rng.integers(n_bandits))])
        arm = np.array([int(rng.integers(arm_count))])
        bandits.update(row, arm, [outcome])
    total_mass = bandits.alpha.sum() + bandits.beta.sum()
    assert total_mass == 2 * arm_count * n_bandits + len(outcomes)
    assert bandits.alpha.sum() == arm_count * n_bandits + sum(outcomes)
    assert np.all(bandits.alpha >= 1.0) and np.all(bandits.beta >= 1.0)
