"""Hot/warm classification and occupancy math shared by SmartMemory.

The static-scanning baselines of Figure 7 use exactly the same
classification rule as the learned agent (only the scan schedule
differs), so the rule lives here rather than inside the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

__all__ = [
    "MemoryPlan",
    "classify_by_coverage",
    "observable_rate",
    "observable_rates",
    "infer_access_rate",
    "infer_access_rates",
    "captured_rate_at_period",
]


@dataclass(frozen=True)
class MemoryPlan:
    """A tier-placement decision: which regions go where.

    This is SmartMemory's prediction value: the Actuator applies it by
    migrating regions between tiers.
    """

    hot: np.ndarray
    warm: np.ndarray
    cold: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    def __post_init__(self) -> None:
        sets = [set(self.hot.tolist()), set(self.warm.tolist()),
                set(self.cold.tolist())]
        total = sum(len(s) for s in sets)
        if len(set().union(*sets)) != total:
            raise ValueError("hot/warm/cold sets must be disjoint")

    @property
    def n_regions(self) -> int:
        return self.hot.size + self.warm.size + self.cold.size


def classify_by_coverage(
    counts: np.ndarray,
    candidates: np.ndarray,
    coverage: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Split ``candidates`` into (hot, warm) by access-count coverage.

    Hot is the minimal set of highest-count regions whose counts sum to
    at least ``coverage`` of the candidates' total ("the minimal set of
    batches that contributed 80% of total memory accesses", §5.3).

    Args:
        counts: per-region access-count estimates (full-length array).
        candidates: region indices eligible for classification.
        coverage: target fraction in (0, 1].

    Returns:
        (hot_indices, warm_indices); all-zero counts yield everything
        hot (no information = do not offload anything).
    """
    if candidates.size == 0:
        return candidates.copy(), candidates.copy()
    candidate_counts = counts[candidates]
    total = candidate_counts.sum()
    if total <= 0:
        return candidates.copy(), np.zeros(0, dtype=candidates.dtype)
    order = np.argsort(candidate_counts)[::-1]
    cumulative = np.cumsum(candidate_counts[order])
    n_hot = int(np.searchsorted(cumulative, coverage * total) + 1)
    n_hot = min(n_hot, candidates.size)
    hot = candidates[order[:n_hot]]
    warm = candidates[order[n_hot:]]
    return np.sort(hot), np.sort(warm)


def observable_rates(
    access_rates: np.ndarray, period_us, pages: int
) -> np.ndarray:
    """Set bits per second a scanner at ``period_us`` would observe.

    Poisson occupancy: each scan of a region with true access rate ``λ``
    sees ``pages·(1 − exp(−λ·p/pages))`` set bits, and there are ``1/p``
    scans per second.  Saturation makes this *sublinear* in the period:
    slow scanning misses accesses — the quantity SmartMemory's ground-
    truth check estimates.

    Elementwise over ``access_rates``; ``period_us`` is one period or
    one per region.  Non-positive rates or periods observe nothing.
    """
    period_s = period_us / 1e6
    with np.errstate(divide="ignore", invalid="ignore"):
        touched = pages * (1.0 - np.exp(-access_rates * period_s / pages))
        observed = touched / period_s
    return np.where((access_rates > 0) & (period_s > 0), observed, 0.0)


def observable_rate(
    access_rate: float, period_us: int, pages: int
) -> float:
    """:func:`observable_rates` of one region."""
    return float(observable_rates(access_rate, period_us, pages))


def infer_access_rates(
    bits_per_scan: np.ndarray, period_us, pages: int
) -> np.ndarray:
    """Invert the occupancy model: true access rates from observed bits.

    Saturated readings (all bits set) carry only a lower bound; they are
    clamped just below saturation so the inversion stays finite.

    Elementwise over ``bits_per_scan``; ``period_us`` is one period or
    one per region.  Non-positive bits or periods infer a zero rate.
    """
    period_s = period_us / 1e6
    fraction = np.minimum(bits_per_scan / pages, 1.0 - 1e-6)
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = -pages * np.log(1.0 - fraction) / period_s
    return np.where((bits_per_scan > 0) & (period_s > 0), rates, 0.0)


def infer_access_rate(
    bits_per_scan: float, period_us: int, pages: int
) -> float:
    """:func:`infer_access_rates` of one region."""
    return float(infer_access_rates(bits_per_scan, period_us, pages))


def captured_rate_at_period(
    access_rate: float, period_us: int, pages: int
) -> float:
    """Alias of :func:`observable_rate` for call-site readability."""
    return observable_rate(access_rate, period_us, pages)
