"""Two-tier memory substrate: regions, access bits, scanning, migration.

This is the substrate under SmartMemory (§5.3).  Memory is divided into
2 MB *regions* of 512 4 KB pages.  A fast first tier (local DRAM) backs
some regions; the rest live in a slow second tier (persistent or
disaggregated memory).  The agent learns per-region scan frequencies and
classifies regions hot/warm/cold.

What the substrate models:

* **Access generation** — each region has a piecewise-constant access
  rate (accesses/second) driven by the workload's popularity
  distribution.  True per-region access totals accrue analytically.
* **Access-bit scanning** — scanning a region reports how many of its
  pages were touched since the previous scan and clears those bits.
  Page-touch counts follow the standard Poisson-occupancy model: with
  ``a`` accesses spread over ``P`` pages, the expected number of distinct
  touched pages is ``P·(1 − exp(−a/P))``.  This is what produces the
  paper's *saturation* effect: at slow scan rates every warmish region
  shows all bits set and hotness becomes indistinguishable (Figure 7's
  min-frequency SLO collapse).
* **Reset cost** — every set bit cleared is one TLB flush; the paper's
  top-of-Figure-7 metric is the total number of access-bit resets.
* **Tier accounting** — accesses to second-tier regions are *remote*;
  the fraction of remote accesses over a window is the SLO the actuator
  safeguard enforces (≤ 20% remote).

Accrual is the per-event hot loop here: every scan, migration, and rate
push accrues first, and the seed rebuilt a fresh ``rates * elapsed``
array plus *two* boolean tier masks (one of them a ``~mask`` allocation)
per accrual.  The live path reuses one delta buffer and caches the
local/remote index vectors, invalidated only on migration — the sums run
over the same elements in the same ascending-index order, so every
accumulated value is bit-identical to the seed path (DESIGN.md §8,
pinned by ``tests/workloads/test_vectorized_workloads_bit_identity.py``).

Scanning is batched the same way: an agent tick scans a *set* of
regions at one instant, so :meth:`TieredMemory.scan_many` pays one
accrual, one vector ``exp`` and one vector ``binomial`` draw for the
whole set and returns a struct-of-arrays :class:`ScanBatch`.  numpy's
``Generator`` consumes its bit stream element by element, so the vector
draw *is* the sequence of scalar draws (pinned by
``tests/workloads/test_rng_batching_identities.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.sim.kernel import Kernel
from repro.sim.units import SEC

__all__ = [
    "Tier",
    "ScanResult",
    "ScanBatch",
    "MemorySnapshot",
    "TieredMemory",
]


class Tier(enum.Enum):
    """Which tier currently backs a region."""

    LOCAL = "local"
    REMOTE = "remote"


@dataclass(frozen=True)
class ScanResult:
    """Outcome of scanning one region's access bits.

    Attributes:
        region: region index.
        set_bits: pages observed touched since the previous scan (0 if
            ``error``).
        pages: pages per region (the scan walked all of them).
        elapsed_us: time since the previous scan of this region.
        saturated: nearly all bits were set — the reading carries no
            rate information beyond a lower bound (undersampling signal).
        error: the scanning driver failed (fault injection); the paper's
            ``ValidateData`` fails such samples (§5.3).
    """

    region: int
    set_bits: int
    pages: int
    elapsed_us: int
    saturated: bool
    error: bool = False


class ScanBatch:
    """The scans of one tick, as a struct of arrays.

    Iterating yields one :class:`ScanResult` per scanned region, in
    scan order; the agent hot paths read the arrays directly.  Batches
    are treated as immutable (the arrays may be shared between a batch
    and its :meth:`all_errored` copy).

    Attributes:
        regions: region indices, in scan order (unique).
        set_bits: pages observed touched per region (0 where ``error``
            came from the scanning driver).
        elapsed_us: time since each region's previous scan.
        saturated: nearly all bits were set (see :class:`ScanResult`).
        error: the scan produced no usable reading.
        pages: pages per region.
    """

    __slots__ = (
        "regions", "set_bits", "elapsed_us", "saturated", "error", "pages"
    )

    def __init__(
        self,
        regions: np.ndarray,
        set_bits: np.ndarray,
        elapsed_us: np.ndarray,
        saturated: np.ndarray,
        error: np.ndarray,
        pages: int,
    ) -> None:
        self.regions = regions
        self.set_bits = set_bits
        self.elapsed_us = elapsed_us
        self.saturated = saturated
        self.error = error
        self.pages = pages

    def all_errored(self) -> "ScanBatch":
        """This batch with every scan flagged as an error (a lost batch)."""
        return ScanBatch(
            self.regions,
            self.set_bits,
            self.elapsed_us,
            self.saturated,
            np.ones(len(self), dtype=bool),
            self.pages,
        )

    def __len__(self) -> int:
        return self.regions.size

    def __iter__(self) -> Iterator[ScanResult]:
        pages = self.pages
        for region, set_bits, elapsed_us, saturated, error in zip(
            self.regions.tolist(),
            self.set_bits.tolist(),
            self.elapsed_us.tolist(),
            self.saturated.tolist(),
            self.error.tolist(),
        ):
            yield ScanResult(
                region, set_bits, pages, elapsed_us, saturated, error
            )


@dataclass(frozen=True)
class MemorySnapshot:
    """Cumulative memory accounting at one instant."""

    time_us: int
    local_accesses: float
    remote_accesses: float
    bit_resets: int
    pages_scanned: int
    migrations: int

    @property
    def total_accesses(self) -> float:
        return self.local_accesses + self.remote_accesses

    def remote_fraction(self) -> float:
        """Fraction of accesses served remotely (0 when idle)."""
        total = self.total_accesses
        return self.remote_accesses / total if total > 0 else 0.0


class TieredMemory:
    """The two-tier memory of one VM, in region granularity.

    Args:
        kernel: simulation kernel.
        n_regions: number of 2 MB regions (512 ≈ a 1 GB VM).
        pages_per_region: 4 KB pages per region (512 in the paper).
        rng: generator for the stochastic part of access-bit occupancy;
            ``None`` uses deterministic expectations (useful in tests).
        saturation_fraction: fraction of set bits above which a scan is
            reported saturated.
    """

    def __init__(
        self,
        kernel: Kernel,
        n_regions: int = 512,
        pages_per_region: int = 512,
        rng: Optional[np.random.Generator] = None,
        saturation_fraction: float = 0.98,
    ) -> None:
        if n_regions <= 0 or pages_per_region <= 0:
            raise ValueError("n_regions and pages_per_region must be positive")
        self.kernel = kernel
        self.n_regions = n_regions
        self.pages_per_region = pages_per_region
        self.rng = rng
        self._saturation_fraction = saturation_fraction

        self._rates = np.zeros(n_regions)  # accesses per second
        self._local = np.ones(n_regions, dtype=bool)  # all start in tier 1
        # accrual scratch + tier caches (module docstring): the delta
        # buffer is reused across accruals; the ascending index vectors
        # and the per-tier extracted rate vectors stand in for the
        # seed's per-accrual boolean masks and fancy extractions, and go
        # stale only when rates or tiers actually change.
        self._delta = np.empty(n_regions)
        self._local_idx = np.arange(n_regions)
        self._remote_idx = np.empty(0, dtype=np.intp)
        # Capacity buffers for the per-tier delta extraction scratch;
        # the active extraction targets are length-k slices.
        self._local_scratch_buf = np.empty(n_regions)
        self._remote_scratch_buf = np.empty(n_regions)
        self._n_local = n_regions
        self._idx_stale = False
        self._true_accesses = np.zeros(n_regions)  # cumulative per region
        # Scanned-state bookkeeping is gathered and scattered a tick's
        # worth of regions at a time (scan_many), so it lives in arrays.
        self._accesses_at_last_scan = np.zeros(n_regions)
        self._last_scan_us = np.zeros(n_regions, dtype=np.int64)
        self._saturation_threshold = saturation_fraction * pages_per_region
        self._local_accesses = 0.0
        self._remote_accesses = 0.0
        self._bit_resets = 0
        self._pages_scanned = 0
        self._migrations = 0
        self._last_accrue_us = kernel.now
        self._scan_fault_probability = 0.0

    @property
    def saturation_fraction(self) -> float:
        """Set-bit fraction above which a scan reports saturation.

        Assignable; the precomputed scan threshold tracks it so
        :meth:`scan` and external readers can never disagree.
        """
        return self._saturation_fraction

    @saturation_fraction.setter
    def saturation_fraction(self, value: float) -> None:
        self._saturation_fraction = value
        self._saturation_threshold = value * self.pages_per_region

    # -- workload side ----------------------------------------------------------

    def set_rates(self, rates: Sequence[float]) -> None:
        """Set all region access rates (accesses/second) at once."""
        rates = np.asarray(rates, dtype=float)
        if rates.shape != (self.n_regions,):
            raise ValueError(
                f"expected {self.n_regions} rates, got shape {rates.shape}"
            )
        if np.any(rates < 0):
            raise ValueError("rates must be non-negative")
        self._accrue()
        np.copyto(self._rates, rates)

    @property
    def rates(self) -> np.ndarray:
        """Current per-region access rates (copy)."""
        return self._rates.copy()

    # -- agent side ----------------------------------------------------------------

    def scan(self, region: int) -> ScanResult:
        """Scan one region's access bits, clearing them (costs TLB flushes)."""
        self._check_region(region)
        self._accrue()
        set_bits, elapsed_us, error = self._scan_one(region, self.kernel.now)
        return ScanResult(
            region=region,
            set_bits=set_bits,
            pages=self.pages_per_region,
            elapsed_us=elapsed_us,
            saturated=(
                not error and set_bits >= self._saturation_threshold
            ),
            error=error,
        )

    def scan_many(self, regions: Iterable[int]) -> ScanBatch:
        """Scan a tick's worth of regions at once; same effect, same
        random draws and same results as calling :meth:`scan` on each
        region in order.

        Raises:
            IndexError: a region is out of range (nothing is scanned).
            ValueError: a region appears twice — one tick scans a region
                once, and the scatter updates would drop the repeat.
        """
        idx = self._region_indices(regions)
        if idx.size > 1 and np.bincount(idx).max() > 1:
            raise ValueError("duplicate regions in one scan batch")
        self._accrue()
        now = self.kernel.now
        pages = self.pages_per_region
        if self._scan_fault_probability > 0.0 and self.rng is not None:
            # Each region draws random() for the driver fault and then,
            # if it survived, binomial() for its occupancy: the two draws
            # interleave per region, so no vector draw reproduces the
            # stream and the window runs the scalar core.
            scans = np.array(
                [self._scan_one(region, now) for region in idx.tolist()],
                dtype=np.int64,
            ).reshape(-1, 3)
            set_bits, elapsed_us = scans[:, 0], scans[:, 1]
            error = scans[:, 2].astype(bool)
        else:
            elapsed_us = now - self._last_scan_us.take(idx)
            true_accesses = self._true_accesses.take(idx)
            accesses = true_accesses - self._accesses_at_last_scan.take(idx)
            # Regions with nothing accrued draw nothing (as in
            # _occupancy), so they are masked out of the vector draw.
            touched = accesses > 0
            fraction = 1.0 - np.exp(-accesses[touched] / pages)
            set_bits = np.zeros(idx.size, dtype=np.int64)
            if self.rng is None:
                set_bits[touched] = np.rint(pages * fraction).astype(np.int64)
            else:
                set_bits[touched] = self.rng.binomial(pages, fraction)
            self._accesses_at_last_scan[idx] = true_accesses
            self._last_scan_us[idx] = now
            self._bit_resets += int(set_bits.sum())
            self._pages_scanned += pages * idx.size
            error = np.zeros(idx.size, dtype=bool)
        return ScanBatch(
            regions=idx,
            set_bits=set_bits,
            elapsed_us=elapsed_us,
            saturated=(set_bits >= self._saturation_threshold) & ~error,
            error=error,
            pages=pages,
        )

    def migrate(self, region: int, tier: Tier) -> bool:
        """Move a region to ``tier``; returns ``True`` if it actually moved."""
        return self.migrate_many((region,), tier) == 1

    def migrate_many(self, regions: Iterable[int], tier: Tier) -> int:
        """Migrate several regions; returns how many actually moved."""
        idx = self._region_indices(regions)
        target_local = tier is Tier.LOCAL
        moving = idx[self._local.take(idx) != target_local]
        if moving.size == 0:
            return 0
        self._accrue()
        self._local[moving] = target_local  # repeats are idempotent
        n_local = int(np.count_nonzero(self._local))
        moved = abs(n_local - self._n_local)
        self._n_local = n_local
        self._idx_stale = True
        self._migrations += moved
        return moved

    def tier_of(self, region: int) -> Tier:
        """Current tier of a region."""
        self._check_region(region)
        return Tier.LOCAL if self._local[region] else Tier.REMOTE

    @property
    def n_local(self) -> int:
        """Number of regions currently in first-tier DRAM."""
        return self._n_local

    @property
    def local_regions(self) -> np.ndarray:
        """Indices of first-tier regions (fresh array; callers may mutate)."""
        self._refresh_idx()
        return self._local_idx.copy()

    @property
    def remote_regions(self) -> np.ndarray:
        """Indices of second-tier regions (fresh array; callers may mutate)."""
        self._refresh_idx()
        return self._remote_idx.copy()

    def snapshot(self) -> MemorySnapshot:
        """Read cumulative accounting (accrued to now)."""
        self._accrue()
        return MemorySnapshot(
            time_us=self.kernel.now,
            local_accesses=self._local_accesses,
            remote_accesses=self._remote_accesses,
            bit_resets=self._bit_resets,
            pages_scanned=self._pages_scanned,
            migrations=self._migrations,
        )

    def true_region_accesses(self) -> np.ndarray:
        """Cumulative true accesses per region (experiment ground truth)."""
        self._accrue()
        return self._true_accesses.copy()

    # -- fault injection ----------------------------------------------------------

    def set_scan_fault_probability(self, probability: float) -> None:
        """Make each scan fail (driver error) with this probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if probability > 0.0 and self.rng is None:
            raise ValueError("scan faults require an rng")
        self._scan_fault_probability = probability

    # -- internals -------------------------------------------------------------------

    def _scan_one(self, region: int, now: int) -> Tuple[int, int, bool]:
        """Scalar scan core: ``(set_bits, elapsed_us, error)`` of one
        already-checked region at an already-accrued instant."""
        elapsed_us = now - int(self._last_scan_us[region])
        if (
            self._scan_fault_probability > 0.0
            and self.rng is not None
            and self.rng.random() < self._scan_fault_probability
        ):
            # Driver error: bits are left untouched, no reading produced.
            return 0, elapsed_us, True
        true_accesses = float(self._true_accesses[region])
        accesses = true_accesses - float(self._accesses_at_last_scan[region])
        set_bits = self._occupancy(accesses)
        self._accesses_at_last_scan[region] = true_accesses
        self._last_scan_us[region] = now
        self._bit_resets += set_bits
        self._pages_scanned += self.pages_per_region
        return set_bits, elapsed_us, False

    def _occupancy(self, accesses: float) -> int:
        """Distinct pages touched by ``accesses`` accesses (Poisson model)."""
        pages = self.pages_per_region
        if accesses <= 0:
            return 0
        expected_fraction = 1.0 - np.exp(-accesses / pages)
        if self.rng is None:
            return int(round(pages * expected_fraction))
        return int(self.rng.binomial(pages, expected_fraction))

    def _region_indices(self, regions: Iterable[int]) -> np.ndarray:
        """``regions`` as an index vector, bounds-checked once."""
        if isinstance(regions, np.ndarray):
            idx = regions.astype(np.intp, copy=False)
        else:
            idx = np.fromiter(regions, dtype=np.intp)
        if idx.size and not 0 <= idx.min() <= idx.max() < self.n_regions:
            out_of_range = (idx < 0) | (idx >= self.n_regions)
            self._check_region(int(idx[out_of_range][0]))
        return idx

    def _refresh_idx(self) -> None:
        if self._idx_stale:
            self._local_idx = np.flatnonzero(self._local)
            self._remote_idx = np.flatnonzero(~self._local)
            self._idx_stale = False

    def _accrue(self) -> None:
        now = self.kernel.now
        elapsed_s = (now - self._last_accrue_us) / SEC
        if elapsed_s <= 0:
            return
        # delta.take(idx) visits the same elements in the same ascending
        # order as the seed's delta[mask], and np.add.reduce is the
        # primitive inside ndarray.sum — so both tier sums see the same
        # pairwise reduction and every accumulated bit is unchanged,
        # while the per-accrual mask build (including the ~mask
        # allocation), the fancy-extraction allocations, and the delta
        # allocation are gone.  mode='clip' only skips the bounds check
        # (the cached indices are in range by construction) and selects
        # numpy's unbuffered take path.
        delta = self._delta
        np.multiply(self._rates, elapsed_s, out=delta)
        self._true_accesses += delta
        n_local = self._n_local
        if n_local == self.n_regions:
            # All-local (the starting state): the extraction would be
            # the whole delta vector, so sum it directly.
            self._local_accesses += float(np.add.reduce(delta))
        elif n_local == 0:
            self._remote_accesses += float(np.add.reduce(delta))
        else:
            self._refresh_idx()
            local_idx = self._local_idx
            scratch = self._local_scratch_buf[:local_idx.size]
            delta.take(local_idx, out=scratch, mode="clip")
            self._local_accesses += float(np.add.reduce(scratch))
            remote_idx = self._remote_idx
            scratch = self._remote_scratch_buf[:remote_idx.size]
            delta.take(remote_idx, out=scratch, mode="clip")
            self._remote_accesses += float(np.add.reduce(scratch))
        self._last_accrue_us = now

    def _check_region(self, region: int) -> None:
        if not 0 <= region < self.n_regions:
            raise IndexError(
                f"region {region} out of range [0, {self.n_regions})"
            )
