"""Distributional feature extraction from telemetry sample windows.

SmartHarvest "collects VM CPU usage data from the hypervisor every 50 µs
and computes distributional features over this data as input to the
model" (§5.2).  This module computes that feature vector from a window of
usage samples.

The extraction runs once per 25 ms learning epoch per harvest agent, so
it is engineered as a single-allocation pass:

* ``mean``/``std`` share one sum: the standard deviation is computed by
  replaying numpy's own ``_var`` pipeline (sum → divide → subtract →
  square → sum → divide → sqrt) on top of the already-computed mean,
  which is bit-identical to ``samples.std()`` while skipping ``std``'s
  internal re-derivation of the mean.  ``np.add.reduce`` is the exact
  primitive ``np.mean`` reduces with, so calling it directly drops the
  ufunc-dispatch wrapper without perturbing a bit.
* the three percentiles and both extremes share one sort, performed
  in a reusable scratch buffer (``ndarray.sort`` on a copy produces
  the same values as ``np.sort``), and each percentile's lerp plan
  (bracketing indices and fraction) depends only on the window length,
  so it is computed once per length.
* a :class:`FeatureExtractor` owns the scratch buffers so per-epoch
  callers (``HarvestModel``) allocate only the 9-float output vector,
  which must stay fresh per call — feature vectors outlive the epoch
  that computed them (the classifier trains on the *previous* epoch's
  features).

``distributional_features`` remains the stateless entry point; it uses a
module-level extractor (the simulator is single-threaded per process).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.ml.quantiles import lerp_plan, lerp_sorted

__all__ = ["FEATURE_NAMES", "FeatureExtractor", "distributional_features"]

#: Order of the features returned by :func:`distributional_features`.
FEATURE_NAMES: List[str] = [
    "mean",
    "std",
    "minimum",
    "p50",
    "p90",
    "p99",
    "maximum",
    "last",
    "trend",
]

_sum = np.add.reduce

#: The percentile features, in output order (slots 3, 4, 5).
_PERCENTILES = (50, 90, 99)


class FeatureExtractor:
    """Reusable-scratch distributional feature extraction.

    One instance per hot-path caller; scratch buffers grow to the
    largest window seen and are reused across calls.  Output vectors
    are freshly allocated each call (callers retain them across epochs).
    """

    def __init__(self) -> None:
        self._scratch = np.empty(0)
        # window length -> the three percentiles' lerp plans
        self._plans: Dict[int, Tuple[Tuple[int, int, float], ...]] = {}

    def __call__(self, samples: np.ndarray) -> np.ndarray:
        """Summarize a telemetry window into a fixed-length feature vector.

        Features (in :data:`FEATURE_NAMES` order): mean, standard
        deviation, min, median, P90, P99, max, most-recent sample, and a
        linear trend (second-half mean minus first-half mean, capturing
        a demand ramp).

        Args:
            samples: 1-D array of usage samples, oldest first.

        Raises:
            ValueError: on an empty window — the caller must guard,
                because an empty window means data collection failed and
                validation should have caught it.
        """
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("need a non-empty 1-D sample window")
        n = samples.size
        half = n // 2
        if half > 0:
            trend = float(
                _sum(samples[half:]) / (n - half)
                - _sum(samples[:half]) / half
            )
        else:
            trend = 0.0
        if self._scratch.size < 2 * n:
            self._scratch = np.empty(2 * n)
        mean = _sum(samples) / n
        # numpy's _var pipeline on top of the shared mean: deviations,
        # squared in place, averaged, rooted.  Bit-identical to
        # samples.std() (pinned by tests/ml/test_features.py).
        deviations = self._scratch[:n]
        np.subtract(samples, mean, out=deviations)
        np.multiply(deviations, deviations, out=deviations)
        std = np.sqrt(_sum(deviations) / n)
        # One sort amortized over the three percentiles (sorted extremes
        # are free), performed in the reusable scratch.
        ordered = self._scratch[n:2 * n]
        ordered[:] = samples
        ordered.sort()
        out = np.empty(len(FEATURE_NAMES))
        out[0] = mean
        out[1] = std
        out[2] = ordered[0]
        plans = self._plans.get(n)
        if plans is None:
            plans = tuple(lerp_plan(n, q) for q in _PERCENTILES)
            self._plans[n] = plans
        out[3] = lerp_sorted(ordered, *plans[0])
        out[4] = lerp_sorted(ordered, *plans[1])
        out[5] = lerp_sorted(ordered, *plans[2])
        out[6] = ordered[-1]
        out[7] = samples[-1]
        out[8] = trend
        return out


_DEFAULT_EXTRACTOR = FeatureExtractor()


def distributional_features(samples: np.ndarray) -> np.ndarray:
    """Summarize a telemetry window (see :class:`FeatureExtractor`)."""
    return _DEFAULT_EXTRACTOR(samples)
