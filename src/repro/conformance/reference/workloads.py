"""Frozen copy of the pre-vectorization workload/substrate hot path.

This module is the ``workloads:seed`` *golden model*, exactly as
:mod:`repro.conformance.reference.kernel` is for the kernel and
:mod:`repro.conformance.reference.ml` for the ML epoch: the conformance
runner and the ``repro bench --suite workloads`` microbenchmarks run the
same per-step scenarios against this implementation and against the
live :mod:`repro.node` / :mod:`repro.workloads`.  Keeping the frozen path
in-tree makes the claimed speedups reproducible on any machine forever,
and gives the lockstep bit-identity tests
(``tests/workloads/test_vectorized_workloads_bit_identity.py``) a
reference that cannot drift.

Never import this from production code.  It intentionally preserves the
pre-optimization inefficiencies:

* ``CpuModel`` recomputes every counter rate (including a ``pow`` for
  the frequency-scaling exponent and the power-curve polynomial) inside
  ``_accrue`` on every phase change, and allocates + fires a fresh
  ``cpu.change`` :class:`~repro.sim.kernel.Event` per change even when
  nothing waits on it;
* ``TieredMemory`` re-derives boolean tier masks (including a ``~mask``
  allocation) and a fresh ``rates * elapsed`` array on every accrual,
  and recounts ``n_local`` with a full ``mask.sum()`` per read;
* ``zipf_rates`` rebuilds and renormalizes the Zipf weight vector on
  every rate push;
* ``TailBenchWorkload`` materializes a full ``HypervisorSnapshot``
  dataclass per 25 ms step, and the CPU workloads pay attribute/method
  dispatch plus a fresh ``ratio ** freq_scaling`` per sample;
* ``Hypervisor`` (the change-point/accrual core only — telemetry
  reconstruction stayed as PR 3 left it) re-derives the usage/deficit/
  elastic rates through property dispatch on every accrual instead of
  caching them per change point.

The frozen classes share the live dataclasses and the live ``Workload``
base — only the per-event accounting loops this PR vectorizes are
copied.
"""

from __future__ import annotations

import math
from collections import deque
from typing import (
    Any,
    Deque,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.node.cpu import CounterSnapshot
from repro.node.hypervisor import HypervisorSnapshot
from repro.node.memory import MemorySnapshot, ScanResult, Tier
from repro.node.power import PowerModel
from repro.sim.kernel import Event, Kernel
from repro.sim.units import MS, SEC
from repro.workloads.base import PerformanceReport, Workload, percentile
from repro.workloads.tailbench import IMAGE_DNN, DemandProfile
from repro.workloads.traces import OBJECTSTORE_MEM, TraceProfile

__all__ = [
    "CpuModel",
    "DiskSpeedWorkload",
    "Hypervisor",
    "ObjectStoreWorkload",
    "TailBenchWorkload",
    "TieredMemory",
    "ZipfMemoryTrace",
    "zipf_rates",
]


class Hypervisor:
    """Seed hypervisor accrual core: property dispatch per accrual.

    Only the change-point/accrual machinery the TailBench step loop
    exercises is frozen here; the PR 3 telemetry reconstruction
    (``sample_usage``) is out of this PR's scope and therefore omitted.
    """

    def __init__(
        self,
        kernel: Kernel,
        n_cores: int = 8,
        history_horizon_us: int = 500_000,
    ) -> None:
        if n_cores <= 0:
            raise ValueError("n_cores must be positive")
        self.kernel = kernel
        self.n_cores = n_cores
        self._horizon = history_horizon_us
        self._demand = 0.0
        self._allocated = float(n_cores)
        self._history: Deque[Tuple[int, int, float, float]] = deque()
        self._segment_start = kernel.now
        self._demand_cus = 0.0
        self._usage_cus = 0.0
        self._deficit_cus = 0.0
        self._elastic_cus = 0.0
        self._last_accrue_us = kernel.now

    @property
    def demand(self) -> float:
        return self._demand

    @property
    def allocated(self) -> float:
        return self._allocated

    @property
    def harvested(self) -> float:
        return self.n_cores - self._allocated

    @property
    def usage(self) -> float:
        return min(self._demand, self._allocated)

    @property
    def deficit(self) -> float:
        return max(0.0, self._demand - self._allocated)

    def set_demand(self, cores: float) -> None:
        if cores < 0:
            raise ValueError("demand must be non-negative")
        self._change(demand=min(float(cores), float(self.n_cores)))

    def set_harvested(self, cores: int) -> int:
        applied = max(0, min(int(cores), self.n_cores))
        self._change(allocated=float(self.n_cores - applied))
        return applied

    def snapshot(self) -> HypervisorSnapshot:
        self._accrue()
        return HypervisorSnapshot(
            time_us=self.kernel.now,
            demand_cus=self._demand_cus,
            usage_cus=self._usage_cus,
            deficit_cus=self._deficit_cus,
            elastic_cus=self._elastic_cus,
        )

    def _change(
        self,
        demand: Optional[float] = None,
        allocated: Optional[float] = None,
    ) -> None:
        self._accrue()
        now = self.kernel.now
        if now > self._segment_start:
            self._history.append(
                (self._segment_start, now, self._demand, self._allocated)
            )
            cutoff = now - self._horizon
            while self._history and self._history[0][1] <= cutoff:
                self._history.popleft()
        if demand is not None:
            self._demand = demand
        if allocated is not None:
            self._allocated = allocated
        self._segment_start = now

    def _accrue(self) -> None:
        now = self.kernel.now
        elapsed = now - self._last_accrue_us
        if elapsed <= 0:
            return
        self._demand_cus += self._demand * elapsed
        self._usage_cus += self.usage * elapsed
        self._deficit_cus += self.deficit * elapsed
        self._elastic_cus += self.harvested * elapsed
        self._last_accrue_us = now


class CpuModel:
    """Seed CPU substrate: per-accrual rate recomputation, eager events."""

    def __init__(
        self,
        kernel: Kernel,
        n_cores: int = 8,
        nominal_freq_ghz: float = 1.5,
        min_freq_ghz: float = 1.0,
        max_freq_ghz: float = 2.6,
        max_ipc: float = 4.0,
        power_model: PowerModel = PowerModel(),
    ) -> None:
        if n_cores <= 0:
            raise ValueError("n_cores must be positive")
        if not min_freq_ghz <= nominal_freq_ghz <= max_freq_ghz:
            raise ValueError("need min_freq <= nominal_freq <= max_freq")
        self.kernel = kernel
        self.n_cores = n_cores
        self.nominal_freq_ghz = nominal_freq_ghz
        self.min_freq_ghz = min_freq_ghz
        self.max_freq_ghz = max_freq_ghz
        self.max_ipc = max_ipc
        self.power_model = power_model

        self._freq_ghz = nominal_freq_ghz
        self._utilization = 0.0
        self._boundness = 1.0
        self._freq_scaling = 1.0

        self._instructions = 0.0
        self._unhalted = 0.0
        self._stalled = 0.0
        self._total = 0.0
        self._energy = 0.0
        self._last_accrue_us = kernel.now

        self.change: Event = kernel.event("cpu.change")

    @property
    def frequency_ghz(self) -> float:
        return self._freq_ghz

    @property
    def utilization(self) -> float:
        return self._utilization

    @property
    def alpha(self) -> float:
        return self._utilization * self._boundness

    def instantaneous_watts(self) -> float:
        return self.power_model.watts(
            self.n_cores, self._freq_ghz, self._utilization
        )

    def ips_rate(self) -> float:
        ratio = self._freq_ghz / self.nominal_freq_ghz
        return (
            self._utilization
            * self._boundness
            * self.max_ipc
            * self.n_cores
            * self.nominal_freq_ghz
            * ratio**self._freq_scaling
        )

    def set_frequency(self, freq_ghz: float) -> float:
        clamped = min(self.max_freq_ghz, max(self.min_freq_ghz, freq_ghz))
        self._accrue()
        self._freq_ghz = clamped
        self._notify_change()
        return clamped

    def set_phase(
        self,
        utilization: float,
        boundness: float = 1.0,
        freq_scaling: float = 1.0,
    ) -> None:
        for name, value in (
            ("utilization", utilization),
            ("boundness", boundness),
            ("freq_scaling", freq_scaling),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        self._accrue()
        self._utilization = utilization
        self._boundness = boundness
        self._freq_scaling = freq_scaling
        self._notify_change()

    def snapshot(self) -> CounterSnapshot:
        self._accrue()
        return CounterSnapshot(
            time_us=self.kernel.now,
            instructions=self._instructions,
            unhalted_cycles=self._unhalted,
            stalled_cycles=self._stalled,
            total_cycles=self._total,
            energy_joules=self._energy,
        )

    def run_work(
        self, giga_instructions: float
    ) -> Generator[Any, Any, None]:
        if giga_instructions < 0:
            raise ValueError("work must be non-negative")
        self._accrue()
        target = self._instructions + giga_instructions
        while True:
            self._accrue()
            remaining = target - self._instructions
            if remaining <= 1e-9:
                return
            rate = self.ips_rate()
            if rate <= 0.0:
                yield self.change
                continue
            eta_us = int(math.ceil(remaining / rate * SEC))
            waiter = self.kernel.event("cpu.work")
            self.kernel.call_later(eta_us, lambda w=waiter: w.succeed("eta"))
            self.change.add_callback(lambda _v, w=waiter: w.succeed("change"))
            yield waiter

    def _accrue(self) -> None:
        now = self.kernel.now
        elapsed_s = (now - self._last_accrue_us) / SEC
        if elapsed_s <= 0.0:
            return
        total_rate = self.n_cores * self._freq_ghz
        unhalted_rate = self._utilization * total_rate
        stalled_rate = unhalted_rate * (1.0 - self._boundness)
        self._total += total_rate * elapsed_s
        self._unhalted += unhalted_rate * elapsed_s
        self._stalled += stalled_rate * elapsed_s
        self._instructions += self.ips_rate() * elapsed_s
        self._energy += self.instantaneous_watts() * elapsed_s
        self._last_accrue_us = now

    def _notify_change(self) -> None:
        old = self.change
        self.change = self.kernel.event("cpu.change")
        old.succeed(None)


class TieredMemory:
    """Seed memory substrate: mask churn and full-vector accrual."""

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
        self.saturation_fraction = saturation_fraction

        self._rates = np.zeros(n_regions)
        self._local = np.ones(n_regions, dtype=bool)
        self._true_accesses = np.zeros(n_regions)
        self._accesses_at_last_scan = np.zeros(n_regions)
        self._last_scan_us = np.zeros(n_regions, dtype=np.int64)
        self._local_accesses = 0.0
        self._remote_accesses = 0.0
        self._bit_resets = 0
        self._pages_scanned = 0
        self._migrations = 0
        self._last_accrue_us = kernel.now
        self._scan_fault_probability = 0.0

    def set_rates(self, rates: Sequence[float]) -> None:
        rates = np.asarray(rates, dtype=float)
        if rates.shape != (self.n_regions,):
            raise ValueError(
                f"expected {self.n_regions} rates, got shape {rates.shape}"
            )
        if np.any(rates < 0):
            raise ValueError("rates must be non-negative")
        self._accrue()
        self._rates = rates.copy()

    @property
    def rates(self) -> np.ndarray:
        return self._rates.copy()

    def scan(self, region: int) -> ScanResult:
        self._check_region(region)
        self._accrue()
        now = self.kernel.now
        elapsed_us = int(now - self._last_scan_us[region])
        if (
            self._scan_fault_probability > 0.0
            and self.rng is not None
            and self.rng.random() < self._scan_fault_probability
        ):
            return ScanResult(
                region=region,
                set_bits=0,
                pages=self.pages_per_region,
                elapsed_us=elapsed_us,
                saturated=False,
                error=True,
            )
        accesses = (
            self._true_accesses[region] - self._accesses_at_last_scan[region]
        )
        set_bits = self._occupancy(accesses)
        self._accesses_at_last_scan[region] = self._true_accesses[region]
        self._last_scan_us[region] = now
        self._bit_resets += set_bits
        self._pages_scanned += self.pages_per_region
        saturated = set_bits >= self.saturation_fraction * self.pages_per_region
        return ScanResult(
            region=region,
            set_bits=set_bits,
            pages=self.pages_per_region,
            elapsed_us=elapsed_us,
            saturated=saturated,
        )

    def migrate(self, region: int, tier: Tier) -> bool:
        self._check_region(region)
        target_local = tier is Tier.LOCAL
        if self._local[region] == target_local:
            return False
        self._accrue()
        self._local[region] = target_local
        self._migrations += 1
        return True

    def migrate_many(self, regions: Iterable[int], tier: Tier) -> int:
        return sum(1 for region in regions if self.migrate(region, tier))

    def tier_of(self, region: int) -> Tier:
        self._check_region(region)
        return Tier.LOCAL if self._local[region] else Tier.REMOTE

    @property
    def n_local(self) -> int:
        return int(self._local.sum())

    @property
    def local_regions(self) -> np.ndarray:
        return np.flatnonzero(self._local)

    @property
    def remote_regions(self) -> np.ndarray:
        return np.flatnonzero(~self._local)

    def snapshot(self) -> MemorySnapshot:
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
        self._accrue()
        return self._true_accesses.copy()

    def set_scan_fault_probability(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if probability > 0.0 and self.rng is None:
            raise ValueError("scan faults require an rng")
        self._scan_fault_probability = probability

    def _occupancy(self, accesses: float) -> int:
        pages = self.pages_per_region
        if accesses <= 0:
            return 0
        expected_fraction = 1.0 - np.exp(-accesses / pages)
        if self.rng is None:
            return int(round(pages * expected_fraction))
        return int(self.rng.binomial(pages, expected_fraction))

    def _accrue(self) -> None:
        now = self.kernel.now
        elapsed_s = (now - self._last_accrue_us) / SEC
        if elapsed_s <= 0:
            return
        delta = self._rates * elapsed_s
        self._true_accesses += delta
        self._local_accesses += float(delta[self._local].sum())
        self._remote_accesses += float(delta[~self._local].sum())
        self._last_accrue_us = now

    def _check_region(self, region: int) -> None:
        if not 0 <= region < self.n_regions:
            raise IndexError(
                f"region {region} out of range [0, {self.n_regions})"
            )


def zipf_rates(
    n_regions: int,
    profile: TraceProfile,
    permutation: np.ndarray,
) -> np.ndarray:
    """Seed rate derivation: weights rebuilt and renormalized per call."""
    n_active = max(1, int(round(profile.active_fraction * n_regions)))
    weights = 1.0 / np.arange(1, n_active + 1) ** profile.zipf_s
    weights /= weights.sum()
    rates = np.zeros(n_regions)
    rates[permutation[:n_active]] = profile.total_rate * weights
    return rates


class ZipfMemoryTrace(Workload):
    """Seed Zipf trace: full weight recomputation on every rate push."""

    def __init__(
        self,
        kernel,
        memory,
        rng: np.random.Generator,
        profile: TraceProfile = OBJECTSTORE_MEM,
    ) -> None:
        super().__init__(kernel)
        self.name = f"{profile.name}-trace"
        self.memory = memory
        self.rng = rng
        self.profile = profile
        self.permutation = rng.permutation(memory.n_regions)
        self.shifts = 0

    def apply_rates(self) -> None:
        self.memory.set_rates(
            zipf_rates(self.memory.n_regions, self.profile, self.permutation)
        )

    def shift_popularity(self) -> None:
        n_active = max(
            1,
            int(round(self.profile.active_fraction * self.memory.n_regions)),
        )
        n_shift = max(1, int(round(self.profile.shift_fraction * n_active)))
        chosen = self.rng.choice(n_active, size=n_shift, replace=False)
        self.permutation[chosen] = self.permutation[np.roll(chosen, 1)]
        self.shifts += 1

    def _run(self):
        self.apply_rates()
        while True:
            yield self.profile.shift_interval_us
            self.shift_popularity()
            self.apply_rates()

    def performance(self) -> PerformanceReport:
        snap = self.memory.snapshot()
        total = snap.total_accesses
        fraction = snap.local_accesses / total if total > 0 else 1.0
        return PerformanceReport(
            metric="local access fraction",
            value=fraction,
            higher_is_better=True,
        )


class TailBenchWorkload(Workload):
    """Seed TailBench loop: one HypervisorSnapshot dataclass per step."""

    def __init__(
        self,
        kernel,
        hypervisor: Hypervisor,
        rng: np.random.Generator,
        profile: DemandProfile = IMAGE_DNN,
        step_us: int = 25 * MS,
    ) -> None:
        super().__init__(kernel)
        self.name = profile.name
        self.hypervisor = hypervisor
        self.rng = rng
        self.profile = profile
        self.step_us = step_us
        self.latency_samples_ms: List[float] = []
        self._demand = (profile.base_low + profile.base_high) / 2.0
        self._burst_steps_left = 0
        self._ramp = 0.0

    def _next_demand(self) -> float:
        profile = self.profile
        if self._burst_steps_left > 0:
            self._burst_steps_left -= 1
            self._ramp = min(1.0, self._ramp + 0.5)
            level = (
                self._demand
                + (profile.burst_cores - self._demand) * self._ramp
            )
            return min(
                max(float(level + self.rng.normal(0.0, 0.2)), 0.0),
                float(self.hypervisor.n_cores),
            )
        self._ramp = 0.0
        if self.rng.random() < profile.burst_probability:
            self._burst_steps_left = int(
                self.rng.integers(
                    profile.burst_steps_min, profile.burst_steps_max + 1
                )
            )
            return self._next_demand()
        self._demand = min(
            max(
                float(self._demand + self.rng.normal(0.0, profile.wander)),
                profile.base_low,
            ),
            profile.base_high,
        )
        return self._demand

    def _run(self):
        previous = self.hypervisor.snapshot()
        while True:
            self.hypervisor.set_demand(self._next_demand())
            yield self.step_us
            current = self.hypervisor.snapshot()
            demand_cus = current.demand_cus - previous.demand_cus
            deficit_cus = current.deficit_cus - previous.deficit_cus
            previous = current
            deficit_ratio = (
                min(1.0, deficit_cus / demand_cus) if demand_cus > 0 else 0.0
            )
            jitter = float(self.rng.lognormal(mean=0.0, sigma=0.06))
            self.latency_samples_ms.append(
                self.profile.base_latency_ms
                * jitter
                * (1.0 + self.profile.starvation_penalty * deficit_ratio)
            )

    def performance(self) -> PerformanceReport:
        return PerformanceReport(
            metric="p99 latency (ms)",
            value=percentile(self.latency_samples_ms, 99),
            higher_is_better=False,
        )


class ObjectStoreWorkload(Workload):
    """Seed ObjectStore loop: per-sample pow and attribute dispatch."""

    name = "objectstore"

    def __init__(
        self,
        kernel,
        cpu,
        rng: np.random.Generator,
        base_latency_ms: float = 2.0,
        boundness: float = 0.9,
        freq_scaling: float = 0.9,
        sample_interval_us: int = 200 * MS,
        speedup_smoothing: float = 0.05,
    ) -> None:
        super().__init__(kernel)
        self.cpu = cpu
        self.rng = rng
        self.base_latency_ms = base_latency_ms
        self.boundness = boundness
        self.freq_scaling = freq_scaling
        self.sample_interval_us = sample_interval_us
        self._speedup_ewma = None
        self.speedup_smoothing = speedup_smoothing
        self.latency_samples_ms: List[float] = []

    def _speedup(self) -> float:
        ratio = self.cpu.frequency_ghz / self.cpu.nominal_freq_ghz
        instantaneous = ratio**self.freq_scaling
        if self._speedup_ewma is None:
            self._speedup_ewma = instantaneous
        else:
            self._speedup_ewma += self.speedup_smoothing * (
                instantaneous - self._speedup_ewma
            )
        return self._speedup_ewma

    def _run(self):
        while True:
            utilization = min(max(float(self.rng.normal(0.95, 0.02)), 0.85),
                              1.0)
            self.cpu.set_phase(
                utilization=utilization,
                boundness=self.boundness,
                freq_scaling=self.freq_scaling,
            )
            jitter = float(self.rng.lognormal(mean=0.0, sigma=0.08))
            self.latency_samples_ms.append(
                self.base_latency_ms * jitter / self._speedup()
            )
            yield self.sample_interval_us

    def performance(self) -> PerformanceReport:
        return PerformanceReport(
            metric="p99 latency (ms)",
            value=percentile(self.latency_samples_ms, 99),
            higher_is_better=False,
        )


class DiskSpeedWorkload(Workload):
    """Seed DiskSpeed loop: per-sample pow and attribute dispatch."""

    name = "diskspeed"

    def __init__(
        self,
        kernel,
        cpu,
        rng: np.random.Generator,
        base_throughput_rps: float = 5000.0,
        utilization: float = 0.6,
        boundness: float = 0.25,
        freq_scaling: float = 0.05,
        sample_interval_us: int = 200 * MS,
    ) -> None:
        super().__init__(kernel)
        self.cpu = cpu
        self.rng = rng
        self.base_throughput_rps = base_throughput_rps
        self.utilization = utilization
        self.boundness = boundness
        self.freq_scaling = freq_scaling
        self.sample_interval_us = sample_interval_us
        self.throughput_samples: List[float] = []

    def _run(self):
        while True:
            utilization = min(
                max(float(self.rng.normal(self.utilization, 0.03)), 0.3), 0.9
            )
            self.cpu.set_phase(
                utilization=utilization,
                boundness=self.boundness,
                freq_scaling=self.freq_scaling,
            )
            ratio = self.cpu.frequency_ghz / self.cpu.nominal_freq_ghz
            jitter = float(self.rng.normal(1.0, 0.02))
            self.throughput_samples.append(
                self.base_throughput_rps * ratio**self.freq_scaling * jitter
            )
            yield self.sample_interval_us

    def performance(self) -> PerformanceReport:
        if not self.throughput_samples:
            raise ValueError("no samples collected")
        return PerformanceReport(
            metric="throughput (req/s)",
            value=float(np.mean(self.throughput_samples)),
            higher_is_better=True,
        )
