"""SmartMemory's Model half: per-region Thompson sampling (§5.3).

"The agent learns the best scanning frequency for each 2 MB region of
memory ...  In every epoch, the agent uses the Thompson Sampling models
to decide how often to scan each batch, ranging from 300 ms to 9.6 s.
At the end of each 38.4-second epoch (4× the maximum sampling period),
the agent observes whether each batch was oversampled, undersampled (as
approximated by number of consecutive access bits set), or well sampled,
and updates the models accordingly."

Safeguards implemented here:

* ``validate_data`` — the scanning driver "will return an error code if
  it fails to scan or reset any access bits"; errored scans are dropped.
* ``assess_model`` — 10% of batches are ground-truth sampled at the
  maximum frequency each epoch; the inferred fraction of accesses missed
  by the model-recommended rates failing 25% marks undersampling.
* ``default_predict`` — hit counts downsampled to the slowest frequency
  for comparability, then only the coldest 5% of batches offloaded.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.agents.memory.classify import (
    MemoryPlan,
    captured_rate_at_period,
    classify_by_coverage,
    infer_access_rate,
    infer_access_rates,
    observable_rates,
)
from repro.agents.memory.config import MemoryConfig
from repro.core.interfaces import Model
from repro.core.prediction import Prediction
from repro.ml.bandits import ThompsonSamplingState
from repro.node.memory import ScanBatch, TieredMemory
from repro.sim.kernel import Kernel
from repro.sim.units import SEC

__all__ = ["RateEstimates", "MemoryModel"]


class RateEstimates:
    """Shared per-region access-rate estimates.

    The Model writes fresh estimates each epoch; the Actuator's
    mitigation reads them to pick the "hottest" remote regions.  Sharing
    an explicit board keeps the two halves decoupled (no reach-through
    into model internals).
    """

    def __init__(self, n_regions: int) -> None:
        self.rates = np.zeros(n_regions)
        self.updated_at_us = 0

    def update(self, rates: np.ndarray, now_us: int) -> None:
        self.rates = rates.copy()
        self.updated_at_us = now_us

    def hottest_remote(
        self, remote_regions: np.ndarray, limit: int
    ) -> np.ndarray:
        """The up-to-``limit`` highest-estimated-rate remote regions."""
        if remote_regions.size == 0:
            return remote_regions
        order = np.argsort(self.rates[remote_regions])[::-1]
        return remote_regions[order[:limit]]


class MemoryModel(Model):
    """Scan-rate learning and hot/warm/cold classification.

    Args:
        kernel: simulation kernel.
        memory: the two-tier memory substrate (scan interface).
        config: agent parameters.
        rng: random stream (arm sampling, ground-truth selection).
        estimates: shared rate board (also given to the actuator).
    """

    def __init__(
        self,
        kernel: Kernel,
        memory: TieredMemory,
        config: MemoryConfig,
        rng: np.random.Generator,
        estimates: RateEstimates,
    ) -> None:
        self.kernel = kernel
        self.memory = memory
        self.config = config
        self.rng = rng
        self.estimates = estimates

        n = memory.n_regions
        self.bandits = ThompsonSamplingState(n, config.n_arms, rng)
        self._periods_us = np.asarray(config.scan_periods_us, dtype=np.int64)
        self._arm = np.zeros(n, dtype=int)  # current arm per region
        self._truth_mask = np.zeros(n, dtype=bool)
        self._next_due = np.zeros(n, dtype=np.int64)
        self._last_seen_us = np.full(n, kernel.now, dtype=np.int64)
        self._cold = np.zeros(n, dtype=bool)
        # per-epoch scan statistics
        self._scan_count = np.zeros(n, dtype=int)
        self._bits_total = np.zeros(n)
        self._saturated = np.zeros(n, dtype=int)
        self._epoch_start_us = kernel.now
        self._missed_fraction: Optional[float] = None
        #: fault injectors applied to every collected scan batch (the
        #: telemetry-transport boundary, mirroring
        #: ``CounterReader.add_injector`` / ``HarvestModel.injectors``)
        self.injectors: List = []
        self._assign_arms()

    # -- Model interface ------------------------------------------------------

    def collect_data(self) -> ScanBatch:
        """Scan every non-cold region whose period has elapsed."""
        now = self.kernel.now
        due = np.flatnonzero((self._next_due <= now) & ~self._cold)
        batch = self.memory.scan_many(due)
        self._next_due[due] = now + self._periods_us[self._period_arm(due)]
        for injector in self.injectors:
            batch = injector(batch)
        return batch

    def validate_data(self, batch: ScanBatch) -> bool:
        """A batch is unusable only if every scan in it errored."""
        if not batch:
            return True  # nothing due this tick: a valid (empty) sample
        return not batch.error.all()

    def commit_data(self, time_us: int, batch: ScanBatch) -> None:
        """Fold non-errored scans into the epoch statistics."""
        ok = ~batch.error
        regions, set_bits = batch.regions[ok], batch.set_bits[ok]
        # scan_many guarantees unique regions, so the fancy-indexed
        # updates below touch each region exactly once.
        self._scan_count[regions] += 1
        self._bits_total[regions] += set_bits
        self._saturated[regions] += batch.saturated[ok]
        self._last_seen_us[regions[set_bits != 0]] = time_us

    def update_model(self) -> None:
        """End of epoch: reward arms, refresh estimates, reassign arms."""
        now = self.kernel.now
        elapsed_s = max(1e-9, (now - self._epoch_start_us) / SEC)
        self._reward_arms()
        self._missed_fraction = self._estimate_missed_fraction(elapsed_s)
        self.estimates.update(self._corrected_rates(), now)
        self._update_cold(now)
        self._assign_arms()

    def model_predict(self) -> Optional[Prediction[MemoryPlan]]:
        counts = self.estimates.rates
        candidates = np.flatnonzero(~self._cold)
        hot, warm = classify_by_coverage(
            counts, candidates, self.config.hot_coverage
        )
        plan = MemoryPlan(
            hot=hot, warm=warm, cold=np.flatnonzero(self._cold)
        )
        return Prediction.fresh(
            self.kernel, plan,
            ttl_us=self.config.schedule.prediction_ttl_us,
        )

    def default_predict(self) -> Optional[Prediction[MemoryPlan]]:
        """Conservative plan: offload only the coldest 5% of batches.

        Hit counts are first downsampled to the slowest scan frequency so
        regions scanned at different rates are comparable (§5.3).
        """
        downsampled = observable_rates(
            self.estimates.rates,
            self.config.scan_periods_us[-1],
            self.memory.pages_per_region,
        )
        candidates = np.flatnonzero(~self._cold)
        if candidates.size == 0:
            plan = MemoryPlan(
                hot=np.zeros(0, dtype=int),
                warm=np.zeros(0, dtype=int),
                cold=np.flatnonzero(self._cold),
            )
        else:
            n_warm = int(
                round((1.0 - self.config.default_local_fraction)
                      * candidates.size)
            )
            order = np.argsort(downsampled[candidates])
            warm = np.sort(candidates[order[:n_warm]])
            hot = np.sort(candidates[order[n_warm:]])
            plan = MemoryPlan(
                hot=hot, warm=warm, cold=np.flatnonzero(self._cold)
            )
        return Prediction.fresh(
            self.kernel,
            plan,
            ttl_us=self.config.schedule.prediction_ttl_us,
            is_default=True,
        )

    def assess_model(self) -> bool:
        """Undersampling check against the max-frequency ground truth."""
        if self._missed_fraction is None:
            return True
        return self._missed_fraction <= self.config.missed_threshold

    # -- introspection (experiments) -----------------------------------------

    @property
    def cold_regions(self) -> np.ndarray:
        return np.flatnonzero(self._cold)

    def chosen_periods_us(self) -> np.ndarray:
        """Current scan period per region (experiments report the mix)."""
        return self._periods_us[self._arm]

    # -- internals ----------------------------------------------------------------

    def _assign_arms(self) -> None:
        """Thompson-sample an arm per region; pick the ground-truth set."""
        now = self.kernel.now
        self._epoch_start_us = now
        self._scan_count[:] = 0
        self._bits_total[:] = 0.0
        self._saturated[:] = 0
        active = np.flatnonzero(~self._cold)
        self._truth_mask[:] = False
        if active.size > 0:
            n_truth = max(1, int(round(self.config.truth_fraction
                                       * active.size)))
            chosen = self.rng.choice(active, size=n_truth, replace=False)
            self._truth_mask[chosen] = True
        # The truth set is drawn first, then one Beta draw covers every
        # active region's arms (the seed's per-region draw order).
        self._arm[active] = self.bandits.sample(active)
        self._next_due[active] = now  # first scan on the next tick

    def _reward_arms(self) -> None:
        """Score each region's epoch: well-sampled = success."""
        regions = np.flatnonzero((self._scan_count != 0) & ~self._cold)
        n_scans = self._scan_count[regions]
        arms = np.where(self._truth_mask[regions], 0, self._arm[regions])
        saturation_rate = self._saturated[regions] / n_scans
        occupancy = (
            self._bits_total[regions]
            / n_scans
            / self.memory.pages_per_region
        )
        # Undersampled (bits clipped) — unless already at the maximum
        # frequency, where no arm can do better: a region hot enough to
        # saturate 300 ms scans is simply "hot".
        undersampled = saturation_rate >= self.config.saturation_undersampled
        # Oversampled: bits are sparse, so a slower arm would observe the
        # same accesses with fewer flushes.  "The optimal scanning
        # frequency is the lowest frequency that yields the same number
        # of accesses as the maximum frequency" (§5.3).
        oversampled = (occupancy < self.config.well_sampled_low) & (
            arms < self.config.n_arms - 1
        )
        success = np.where(undersampled, arms == 0, ~oversampled)
        self.bandits.update(regions, arms, success)

    def _estimate_missed_fraction(self, elapsed_s: float) -> Optional[float]:
        """Weighted miss estimate over the ground-truth sample (§5.3).

        For each ground-truth region (scanned at maximum frequency this
        epoch, giving a trustworthy access-rate estimate), ask: *if this
        region were scanned at the arm the model currently recommends,
        how much of its access rate would be unrecoverable?*  A scan
        period is information-preserving while its bit occupancy stays
        below saturation — the occupancy inversion then recovers the
        rate exactly.  Once the recommended period would saturate the
        bits, everything above the saturation bound is missed.  The
        aggregate, weighted by region hotness, is the paper's "fraction
        of access bits missed by the model-recommended scanning rates".
        """
        truth_regions = np.flatnonzero(self._truth_mask)
        pages = self.memory.pages_per_region
        max_period = self.config.scan_periods_us[0]
        saturation_bits = self.memory.saturation_fraction * pages
        recommended_arms = self.bandits.means(truth_regions).argmax(axis=1)
        total_truth_rate = 0.0
        total_missed = 0.0
        for region, recommended in zip(truth_regions, recommended_arms):
            n_scans = self._scan_count[region]
            if n_scans == 0:
                continue
            bits_per_scan = self._bits_total[region] / n_scans
            access_rate = infer_access_rate(bits_per_scan, max_period, pages)
            if access_rate <= 0:
                continue
            period = self.config.scan_periods_us[recommended]
            expected_bits = (
                captured_rate_at_period(access_rate, period, pages)
                * period
                / 1e6
            )
            if expected_bits < saturation_bits:
                recoverable = access_rate  # inversion is exact: no loss
            else:
                recoverable = infer_access_rate(
                    saturation_bits, period, pages
                )
            missed = max(0.0, 1.0 - recoverable / access_rate)
            total_truth_rate += access_rate
            total_missed += missed * access_rate
        if total_truth_rate <= 0:
            return None
        return total_missed / total_truth_rate

    def _corrected_rates(self) -> np.ndarray:
        """Per-region access-rate estimates, saturation-corrected.

        Raw set-bit counts undercount fast regions scanned slowly; the
        Poisson-occupancy inversion recovers the underlying rate from
        bits-per-scan at the region's scan period (up to the saturation
        bound, where only a lower bound survives — exactly the residual
        ambiguity the ground-truth safeguard monitors).
        """
        rates = np.zeros(self.memory.n_regions)
        scanned = np.flatnonzero(self._scan_count)
        rates[scanned] = infer_access_rates(
            self._bits_total[scanned] / self._scan_count[scanned],
            self._periods_us[self._period_arm(scanned)],
            self.memory.pages_per_region,
        )
        return rates

    def _period_arm(self, regions: np.ndarray) -> np.ndarray:
        """The arm each region is scanned at: ground truth runs at arm 0."""
        return np.where(self._truth_mask[regions], 0, self._arm[regions])

    def _update_cold(self, now: int) -> None:
        """Mark regions untouched for longer than the cold timeout."""
        stale = (now - self._last_seen_us) > self.config.cold_timeout_us
        self._cold = stale
