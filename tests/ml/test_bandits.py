"""Tests for Beta-Bernoulli Thompson sampling over one array state."""

import numpy as np
import pytest

from repro.conformance.reference import ml as legacy
from repro.ml.bandits import ThompsonSamplingState
from repro.sim import RngStreams


def test_converges_to_best_arm():
    rng = RngStreams(0)
    bandits = ThompsonSamplingState(1, n_arms=4, rng=rng.get("ts"))
    env = rng.get("env")
    true_p = [0.1, 0.3, 0.9, 0.5]
    row = np.array([0])
    pulls = np.zeros(4, dtype=int)
    for _ in range(800):
        arm = bandits.sample(row)
        pulls[arm[0]] += 1
        bandits.update(row, arm, [env.random() < true_p[arm[0]]])
    # Most pulls should have gone to the best arm by the end.
    assert int(np.argmax(pulls)) == 2
    assert pulls[2] > 0.6 * pulls.sum()
    # Every pull added exactly one pseudo-count.
    assert bandits.alpha.sum() + bandits.beta.sum() == 2 * 4 + 800


def test_posterior_mean_tracks_observations():
    bandits = ThompsonSamplingState(3, n_arms=2, rng=RngStreams(1).get("ts"))
    rows = np.array([0, 2])
    for _ in range(40):
        bandits.update(rows, np.array([0, 1]), [True, False])
    means = bandits.means(rows)
    assert means[0, 0] > 0.9 and means[0, 1] == 0.5
    assert means[1, 1] < 0.1 and means[1, 0] == 0.5
    # An untouched bandit keeps its prior.
    assert np.array_equal(bandits.means(np.array([1])), [[0.5, 0.5]])


def test_weighted_update_is_partial_evidence():
    bandits = ThompsonSamplingState(1, n_arms=2, rng=RngStreams(2).get("ts"))
    bandits.update(np.array([0]), np.array([0]), [0.75])
    assert bandits.alpha[0, 0] == pytest.approx(1.75)
    assert bandits.beta[0, 0] == pytest.approx(1.25)
    with pytest.raises(ValueError):
        bandits.update(np.array([0]), np.array([0]), [1.5])


def test_selection_is_reproducible_given_seed():
    def run(seed):
        bandits = ThompsonSamplingState(
            2, n_arms=3, rng=RngStreams(seed).get("t")
        )
        rows = np.arange(2)
        picks = []
        for i in range(50):
            arms = bandits.sample(rows)
            picks.append(arms.tolist())
            bandits.update(rows, arms, [i % 2 == 0, i % 3 == 0])
        return picks

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_arm_bounds_checked():
    bandits = ThompsonSamplingState(1, n_arms=2, rng=RngStreams(0).get("t"))
    with pytest.raises(ValueError):
        bandits.update(np.array([0]), np.array([2]), [True])


def test_constructor_validation():
    rng = RngStreams(0).get("t")
    with pytest.raises(ValueError):
        ThompsonSamplingState(4, n_arms=1, rng=rng)
    with pytest.raises(ValueError):
        ThompsonSamplingState(4, n_arms=2, rng=rng, prior_alpha=0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_array_state_matches_the_per_region_loop_in_lockstep(seed):
    """SmartMemory's epoch pattern on both sides of one seed: a changing
    set of cold regions drops out, the ground-truth set is drawn with
    ``rng.choice`` *before* the arms, the arms come from one Thompson
    draw, and every scanned region is rewarded.  The arm sequences, the
    posterior means, the alpha/beta state and the generator position
    must agree exactly."""
    n_regions, n_arms = 64, 6
    live_rng = np.random.default_rng(seed)
    frozen_rng = np.random.default_rng(seed)
    live = ThompsonSamplingState(n_regions, n_arms, live_rng)
    frozen = legacy.ThompsonSamplingState(n_regions, n_arms, frozen_rng)
    world = np.random.default_rng(1000 + seed)
    for epoch in range(40):
        cold = world.random(n_regions) < (0.0 if epoch < 3 else 0.3)
        if epoch == 20:
            cold[:] = True  # every region cold: nothing is drawn
        active = np.flatnonzero(~cold)
        truths = []
        for rng in (live_rng, frozen_rng):
            n_truth = max(1, active.size // 10) if active.size else 0
            truths.append(
                rng.choice(active, size=n_truth, replace=False)
                if active.size
                else active
            )
        assert np.array_equal(truths[0], truths[1])
        live_arms = live.sample(active)
        frozen_arms = frozen.sample(active)
        assert np.array_equal(live_arms, frozen_arms), epoch
        scanned = active[world.random(active.size) < 0.8]
        arms = live_arms[np.isin(active, scanned)]
        arms[np.isin(scanned, truths[0])] = 0
        success = world.random(scanned.size) < 0.6
        live.update(scanned, arms, success)
        frozen.update(scanned, arms, success)
        assert np.array_equal(
            live.means(scanned), frozen.means(scanned).reshape(-1, n_arms)
        )
    assert np.array_equal(
        live.alpha, np.stack([s.alpha for s in frozen.samplers])
    )
    assert np.array_equal(
        live.beta, np.stack([s.beta for s in frozen.samplers])
    )
    assert live_rng.bit_generator.state == frozen_rng.bit_generator.state
