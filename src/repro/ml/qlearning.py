"""Tabular Q-learning — SmartOverclock's model (§5.1).

The paper: "we created an intelligent on-node overclocking agent called
SmartOverclock, which uses Q-learning, a simple form of Reinforcement
Learning...  To balance exploitation of the policy learned so far with
exploration of new frequencies, the agent uses the action selected by the
RL policy 90% of the time and randomly picks a frequency 10% of the
time."

States are arbitrary hashable values (the agent discretizes its IPS/
frequency observations); actions are indices into a fixed action list.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["QLearner"]


class QLearner:
    """ε-greedy tabular Q-learning over hashable states.

    Args:
        n_actions: size of the action set.
        rng: random stream for exploration (and tie-breaking).
        learning_rate: Q-update step size (``α`` in the standard rule).
        discount: future-reward discount (``γ``).
        epsilon: exploration probability (0.1 in the paper).
        initial_q: optimistic initialization encourages early exploration.
    """

    def __init__(
        self,
        n_actions: int,
        rng: np.random.Generator,
        learning_rate: float = 0.2,
        discount: float = 0.6,
        epsilon: float = 0.1,
        initial_q: float = 0.0,
    ) -> None:
        if n_actions < 2:
            raise ValueError("need at least two actions")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 <= discount < 1.0:
            raise ValueError("discount must be in [0, 1)")
        self.n_actions = n_actions
        self.rng = rng
        self.learning_rate = learning_rate
        self.discount = discount
        self.epsilon = epsilon
        self.initial_q = initial_q
        self._q: Dict[Hashable, np.ndarray] = {}
        self.updates = 0
        self.explorations = 0

    # -- policy ------------------------------------------------------------

    def q_values(self, state: Hashable) -> np.ndarray:
        """The Q-row for ``state`` (created on first touch)."""
        if state not in self._q:
            self._q[state] = np.full(self.n_actions, self.initial_q)
        return self._q[state]

    def best_action(self, state: Hashable) -> int:
        """Greedy action (ties broken uniformly at random)."""
        q = self.q_values(state)
        best = np.flatnonzero(q == q.max())
        if best.size == 1:
            return int(best[0])
        return int(self.rng.choice(best))

    def select_action(self, state: Hashable) -> Tuple[int, bool]:
        """ε-greedy action; returns ``(action, explored)``.

        ``explored`` is ``True`` when the action came from the random
        10%, which the agent needs to know: the paper's model safeguard
        keeps exploring even while predictions are overridden.
        """
        if self.rng.random() < self.epsilon:
            self.explorations += 1
            return int(self.rng.integers(self.n_actions)), True
        return self.best_action(state), False

    # -- learning -------------------------------------------------------------

    def update(
        self,
        state: Hashable,
        action: int,
        reward: float,
        next_state: Optional[Hashable] = None,
    ) -> float:
        """Standard Q-learning update; returns the TD error.

        ``Q(s,a) += α · (r + γ·max_a' Q(s',a') − Q(s,a))``; a ``None``
        next state is terminal (no bootstrap term).
        """
        if not 0 <= action < self.n_actions:
            raise ValueError(f"action {action} out of range")
        q = self.q_values(state)
        bootstrap = 0.0
        if next_state is not None:
            bootstrap = float(self.q_values(next_state).max())
        td_error = reward + self.discount * bootstrap - q[action]
        q[action] += self.learning_rate * td_error
        self.updates += 1
        return float(td_error)

    # -- introspection -------------------------------------------------------

    def greedy_policy(self) -> Dict[Hashable, int]:
        """Snapshot of the current greedy policy (for tests/diagnostics)."""
        return {state: int(np.argmax(row)) for state, row in self._q.items()}
