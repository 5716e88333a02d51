"""Cost-sensitive one-against-all classification (VW ``csoaa`` reduction).

SmartHarvest "uses a cost-sensitive classifier from the VowpalWabbit
framework to predict the maximum number of CPU cores needed by the
primary VMs in the next 25 ms" (§5.2).  Cost-sensitivity matters because
the two error directions are asymmetric: under-predicting cores starves
the customer VM (expensive), over-predicting merely harvests less
(cheap).

This implementation mirrors VW's reduction — one online linear cost
model per class, inference picks the argmin — but stores every class's
weights in a single ``(n_classes, n_features + 1)`` matrix (last column
is the per-class bias) instead of one ``OnlineLinearRegression`` object
per class.  Predict is one ``np.vecdot`` over the class rows + argmin;
update is one rank-1 outer-product SGD step.  Neither holds a Python
loop over classes, which matters in a loop that runs every 25 ms
learning epoch, fleet-wide.

**Bit-identity contract.**  Every digest and golden test pins results to
the seed, so each row's arithmetic must reproduce the per-class
``OnlineLinearRegression`` exactly:

* Each row's prediction uses the *same* BLAS dot primitive as the
  seed's per-class ``weights @ x`` on a 1-D row: numpy's ``vecdot``
  loop calls ``cblas_ddot`` once per row, so the seed's IEEE operation
  order per row is kept while the per-class Python dispatch goes.  A
  whole-matrix GEMV (``W @ x``) is **not** usable here: BLAS ``dgemv``
  blocks its reduction differently from ``ddot`` (measured with
  OpenBLAS: nearly every random 13×9 input differs in the last ulp),
  which would flip digests.  The bias is added elementwise afterwards,
  as the seed's ``w @ x + b`` did.
* The argmin is ``np.argmin``'s, as the seed's: the first NaN wins and
  ties go to the lowest class.
* The per-class error is one ``np.subtract`` and one ``np.clip``, which
  match the seed's scalar ``min``/``max`` clip elementwise on ±0, ±inf
  and NaN (NaN propagates), including a clip of 0.
* The rank-1 weight update applies the same elementwise operations in
  the same order as the seed's per-class step (multiply by the clipped
  error, then by the learning rate, then subtract), so it is
  bit-identical regardless of BLAS — elementwise ufuncs have no
  reduction order.

``tests/ml/test_vectorized_bit_identity.py`` drives this class and the
frozen per-class copy (the ``ml:seed`` golden model) with identical
random streams for a thousand epochs and requires exact equality of
predictions, weights, and update counters;
``tests/ml/test_vecdot_kernel.py`` pins the ``vecdot`` / ``clip``
equivalences themselves.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "CostSensitiveClassifier",
    "asymmetric_core_costs",
    "asymmetric_cost_table",
]


def asymmetric_core_costs(
    true_class: int,
    n_classes: int,
    under_cost: float = 4.0,
    over_cost: float = 1.0,
) -> np.ndarray:
    """Cost vector for predicting each class when ``true_class`` is correct.

    Predicting ``k < true`` (undersupply) costs ``under_cost`` per missing
    core; ``k > true`` (oversupply) costs ``over_cost`` per extra core.
    This is the asymmetry that makes SmartHarvest conservative.
    """
    if not 0 <= true_class < n_classes:
        raise ValueError(f"true_class {true_class} out of [0, {n_classes})")
    classes = np.arange(n_classes)
    costs = np.where(
        classes < true_class,
        under_cost * (true_class - classes),
        over_cost * (classes - true_class),
    )
    return costs.astype(float)


@lru_cache(maxsize=None)
def asymmetric_cost_table(
    n_classes: int, under_cost: float = 4.0, over_cost: float = 1.0
) -> Tuple[np.ndarray, ...]:
    """Every :func:`asymmetric_core_costs` vector, indexed by true class.

    The cost vector depends only on the label, so an agent that learns
    every epoch indexes this table instead of rebuilding the vector.
    Memoised per ``(n_classes, under_cost, over_cost)`` — a fleet of
    same-config nodes shares one table — and therefore read-only: every
    caller is handed the same rows.
    """
    table = np.stack(
        [
            asymmetric_core_costs(label, n_classes, under_cost, over_cost)
            for label in range(n_classes)
        ]
    )
    table.setflags(write=False)
    return tuple(table)


class CostSensitiveClassifier:
    """Multiclass cost-sensitive learner over one shared weight matrix.

    Args:
        n_classes: number of classes (for SmartHarvest, cores 0..N).
        n_features: feature dimensionality (bias handled internally).
        learning_rate: SGD step size, shared by all classes.
        l2: L2 regularization strength applied at each step.
        clip_gradient: per-step cap on each class's error magnitude
            (the §3.2 bad-data guard); ``None`` disables clipping.

    Attributes:
        weights: the ``(n_classes, n_features + 1)`` parameter matrix;
            column ``n_features`` is the per-class bias.  Read-only for
            callers: the classifier mutates it in place (its views
            into it stay valid for its lifetime) and reuses the last
            predict's scores in the next update, so an external write
            in between would leave that update using stale scores.
        updates: number of :meth:`update` calls applied.
    """

    def __init__(
        self,
        n_classes: int,
        n_features: int,
        learning_rate: float = 0.05,
        l2: float = 0.0,
        clip_gradient: Optional[float] = 100.0,
    ) -> None:
        if n_classes < 2:
            raise ValueError("need at least two classes")
        if n_features <= 0:
            raise ValueError("n_features must be positive")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if l2 < 0:
            raise ValueError("l2 must be non-negative")
        self.n_classes = n_classes
        self.n_features = n_features
        self.learning_rate = learning_rate
        self.l2 = l2
        self.clip_gradient = clip_gradient
        self.updates = 0

        self.weights = np.zeros((n_classes, n_features + 1))
        # Stable views into the matrix; they stay valid because all
        # updates are in place.
        self._w = self.weights[:, :n_features]
        self._bias = self.weights[:, n_features]
        # Per-update scratch (rank-1 step and clipped error vector).
        self._step = np.empty((n_classes, n_features))
        self._errors = np.empty(n_classes)
        self._errors_col = self._errors.reshape(n_classes, 1)
        self._l2_scratch = np.empty((n_classes, n_features))
        # (features, their bytes, scores) of the last predict, valid
        # until the next update changes the weights.
        self._scored: Optional[Tuple[np.ndarray, bytes, np.ndarray]] = None

    def predicted_costs(self, features: Sequence[float]) -> np.ndarray:
        """Predicted cost of choosing each class."""
        return self._scores(self._check(features))

    def predict(self, features: Sequence[float]) -> int:
        """The class with minimum predicted cost (ties → lowest class).

        Keeps the per-class scores, which the next :meth:`update` on the
        same array reuses.
        """
        x = self._check(features)
        scores = self._scores(x)
        self._scored = (x, x.tobytes(), scores)
        return int(np.argmin(scores))

    def update(
        self, features: Sequence[float], costs: Sequence[float]
    ) -> None:
        """One rank-1 SGD step toward an observed cost vector.

        The step starts from each class's predicted cost.  When the last
        :meth:`predict` since the previous update scored this very array
        object holding the same bytes, its scores are those predictions
        bit for bit (the same row-``dot``s of the same memory against
        the same weights), so they are reused instead of recomputed.
        Every update invalidates them.  The identity check keeps the
        memory layout fixed; the bytes check catches an in-place write
        between the two calls.
        """
        x = self._check(features)
        costs = np.asarray(costs, dtype=float)
        if costs.shape != (self.n_classes,):
            raise ValueError(
                f"expected {self.n_classes} costs, got shape {costs.shape}"
            )
        scored = self._scored
        self._scored = None
        if scored is not None and scored[0] is x and scored[1] == x.tobytes():
            scores = scored[2]
        else:
            scores = self._scores(x)
        # Per-row error, clipped: elementwise the seed's scalar
        # ``score - cost`` and min/max clip, NaN propagation included.
        clip = self.clip_gradient
        errors = self._errors
        np.subtract(scores, costs, out=errors)
        if clip is not None:
            np.clip(errors, -clip, clip, out=errors)
        step = self._step
        if self.l2:
            # weights -= lr * (error * x + l2 * weights), elementwise in
            # the seed's operand order.
            np.multiply(self._errors_col, x, out=step)
            np.multiply(self._w, self.l2, out=self._l2_scratch)
            step += self._l2_scratch
            step *= self.learning_rate
            self._w -= step
        else:
            # l2 == 0 contributes an exact ±0.0 per element, so dropping
            # the term is bit-identical (same reasoning as the seed's
            # OnlineLinearRegression fast path).
            np.multiply(self._errors_col, x, out=step)
            step *= self.learning_rate
            self._w -= step
        np.multiply(errors, self.learning_rate, out=errors)
        self._bias -= errors
        self.updates += 1

    def _scores(self, x: np.ndarray) -> np.ndarray:
        """Each class's predicted cost: its row ``dot`` plus its bias."""
        costs = np.vecdot(self._w, x)
        costs += self._bias
        return costs

    def _check(self, features: Sequence[float]) -> np.ndarray:
        x = np.asarray(features, dtype=float)
        if x.shape != (self.n_features,):
            raise ValueError(
                f"expected {self.n_features} features, got shape {x.shape}"
            )
        return x
