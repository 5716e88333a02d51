"""Scalar percentiles, bit-identical to ``np.percentile`` but ~10× cheaper.

``np.percentile`` costs ~100 µs per call on small windows — array
conversion, axis handling, partition, and ufunc dispatch — and the
runtime calls it several times per learning epoch (three per feature
vector, once per SLO window).  These helpers reproduce numpy's default
``linear`` interpolation *exactly* — same ``q/100 * (n-1)`` virtual
index, same two-sided lerp (``a + (b-a)t`` below the midpoint,
``b - (b-a)(1-t)`` at or above it), same IEEE-754 operation order — so
swapping them in cannot perturb a single result bit.  The equivalence is
pinned against numpy by ``tests/ml/test_quantiles.py`` over randomized
inputs.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

__all__ = ["lerp_plan", "lerp_sorted", "percentile", "percentile_of_sorted"]


def percentile_of_sorted(ordered: Sequence[float], q: float) -> float:
    """Percentile ``q`` (in [0, 100]) of an already-sorted sequence.

    Use this form to amortize one sort across several percentiles of the
    same window.  ``ordered`` may be a sorted list or a sorted 1-D numpy
    array; the result equals ``float(np.percentile(values, q))``.
    """
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    return lerp_sorted(ordered, *lerp_plan(n, q))


def lerp_plan(n: int, q: float) -> Tuple[int, int, float]:
    """Where percentile ``q`` of ``n`` sorted values lies.

    Returns numpy's ``(previous, next, t)``: the two bracketing indices
    and the fraction between them.  It depends only on ``n`` and ``q``,
    so a caller with a fixed window length computes it once.
    """
    virtual = q / 100.0 * (n - 1)
    previous = math.floor(virtual)
    if previous < 0:
        previous = 0
    elif previous > n - 1:
        previous = n - 1
    nxt = previous + 1
    if nxt > n - 1:
        nxt = n - 1
    return previous, nxt, virtual - previous


def lerp_sorted(
    ordered: Sequence[float], previous: int, nxt: int, t: float
) -> float:
    """numpy's two-sided lerp between two entries of a sorted sequence."""
    a = float(ordered[previous])
    b = float(ordered[nxt])
    diff = b - a
    if t >= 0.5:
        return b - diff * (1.0 - t)
    return a + diff * t


def percentile(samples: Sequence[float], q: float) -> float:
    """Percentile ``q`` of an unsorted sample sequence."""
    return percentile_of_sorted(sorted(samples), q)
