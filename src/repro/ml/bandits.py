"""Thompson sampling with Beta priors — SmartMemory's model (§5.3).

The paper: "It uses Thompson Sampling with a Beta distribution prior, a
well-known multi-armed bandit algorithm...  The agent learns the best
scanning frequency for each 2 MB region of memory."

SmartMemory runs one independent bandit per memory region; its arms
are the scan periods (300 ms … 9.6 s).  A reward of 1 means the chosen
period *well-sampled* the region (neither saturated nor empty).
:class:`ThompsonSamplingState` holds every region's posterior as one
``(n_bandits, n_arms)`` pair of ``alpha``/``beta`` arrays, so an epoch
samples all regions with one ``rng.beta`` call and rewards them with
two fancy-index adds.

**Bit-identity with one sampler object per region.**  ``rng.beta``
over a ``(k, n_arms)`` matrix draws its elements in C order, exactly
the ``k`` row-wise ``rng.beta(alpha_row, beta_row)`` calls the
per-region loop made (same values, same generator position), and
``argmax(axis=1)`` picks each row's first maximum as ``argmax`` does.
A Bernoulli update adds ``1.0`` to one pseudo-count and ``0.0`` to the
other; ``x + 0.0 == x`` for every positive ``x``, so the graded form
is the per-region ``if success`` branch bit for bit.  The frozen
per-region loop (the ``ml:seed`` golden model) and
``tests/ml/test_bandits.py`` hold the two side by side.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ThompsonSamplingState"]


class ThompsonSamplingState:
    """Beta-Bernoulli Thompson sampling for a bank of independent bandits.

    Args:
        n_bandits: number of bandits (SmartMemory: one per region).
        n_arms: arms per bandit.
        rng: random stream for posterior sampling.
        prior_alpha / prior_beta: Beta prior pseudo-counts (1, 1 = uniform).

    Attributes:
        alpha / beta: ``(n_bandits, n_arms)`` posterior pseudo-counts.
    """

    def __init__(
        self,
        n_bandits: int,
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
        self.alpha = np.full((n_bandits, n_arms), float(prior_alpha))
        self.beta = np.full((n_bandits, n_arms), float(prior_beta))

    def sample(self, rows: np.ndarray) -> np.ndarray:
        """One posterior draw per arm of each row; each row's argmax arm."""
        draws = self.rng.beta(self.alpha[rows], self.beta[rows])
        return draws.argmax(axis=1)

    def update(
        self, rows: np.ndarray, arms: np.ndarray, reward: np.ndarray
    ) -> None:
        """Record one reward in [0, 1] for ``arms[i]`` of bandit ``rows[i]``.

        A bool reward is a Bernoulli outcome; a fractional one adds
        partial pseudo-counts (a graded observation).  ``rows`` must not
        repeat: each bandit takes at most one reward per call.
        """
        reward = np.asarray(reward, dtype=float)
        if not ((reward >= 0.0) & (reward <= 1.0)).all():
            raise ValueError("rewards must be in [0, 1]")
        arms = np.asarray(arms)
        if ((arms < 0) | (arms >= self.n_arms)).any():
            raise ValueError(f"arm out of range [0, {self.n_arms})")
        self.alpha[rows, arms] += reward
        self.beta[rows, arms] += 1.0 - reward

    def means(self, rows: np.ndarray) -> np.ndarray:
        """Posterior mean of every arm of each row (not used to select)."""
        alpha = self.alpha[rows]
        return alpha / (alpha + self.beta[rows])
