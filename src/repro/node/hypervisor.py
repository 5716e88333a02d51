"""Simulated hypervisor: vCPU scheduling, wait accounting, core harvesting.

This is the substrate under SmartHarvest.  The paper's agent runs on the
Hyper-V root partition and observes two hypervisor counters:

* per-VM CPU usage sampled every 50 µs (model input), and
* how long virtual cores waited for physical cores (the actuator
  safeguard's QoS proxy, §5.2).

We reproduce both from a fluid model: the primary VM group presents a
piecewise-constant *demand* (cores it wants to run), the agent controls
the *allocation* (physical cores left to the primary after harvesting),
and the hypervisor accounts exactly for

``usage = min(demand, allocated)``    (cores actually running)
``deficit = max(0, demand − allocated)``  (vCPU wait accrual rate)
``elastic = n_cores − allocated``     (cores loaned to the ElasticVM).

All integrals accrue lazily at change points, so 50 µs sampling is
reconstructed analytically (see :meth:`Hypervisor.sample_usage`) instead
of simulated event-by-event.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

import numpy as np

from repro.sim.kernel import Kernel
from repro.sim.units import SEC

__all__ = ["HypervisorSnapshot", "Hypervisor"]


@dataclass(frozen=True)
class HypervisorSnapshot:
    """Cumulative scheduling integrals at one instant (core-microseconds)."""

    time_us: int
    demand_cus: float
    usage_cus: float
    deficit_cus: float
    elastic_cus: float

    def wait_seconds(self) -> float:
        """Total vCPU wait accumulated so far, in core-seconds."""
        return self.deficit_cus / SEC


class Hypervisor:
    """Fluid-model hypervisor for one primary VM group plus an ElasticVM.

    Args:
        kernel: simulation kernel.
        n_cores: physical cores available to the primary group when no
            harvesting is active.
        history_horizon_us: how much demand/allocation history to keep for
            telemetry reconstruction (must cover the model's collection
            window; SmartHarvest uses 25 ms epochs).
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
        self._n_cores_f = float(n_cores)
        self._horizon = history_horizon_us
        self._demand = 0.0
        self._allocated = float(n_cores)
        # Accrual rates, recomputed once per change point: usage/deficit/
        # elastic are pure functions of (demand, allocated) and therefore
        # piecewise-constant, but the seed re-derived all three through
        # property dispatch on every accrual.  Same expressions, same
        # bits (DESIGN.md §8).
        self._usage_rate = 0.0
        self._deficit_rate = 0.0
        self._elastic_rate = 0.0
        # closed history segments: (start_us, end_us, demand, allocated),
        # oldest first.  A deque so horizon trimming is O(1) per retired
        # segment (the seed's list.pop(0) shifted every retained entry
        # at every change point).
        self._history: Deque[Tuple[int, int, float, float]] = deque()
        self._segment_start = kernel.now
        # Telemetry reconstruction scratch, reused across sample_usage
        # calls (the epoch window size is constant per agent config, so
        # these stabilize after the first epoch).  Only demand/allocated/
        # noise staging is reused; the returned usage array is always
        # fresh — callers retain sample windows across epochs.
        self._sample_demand = np.empty(0)
        self._sample_allocated = np.empty(0)
        self._sample_noise = np.empty(0)
        # cumulative integrals, core-microseconds
        self._demand_cus = 0.0
        self._usage_cus = 0.0
        self._deficit_cus = 0.0
        self._elastic_cus = 0.0
        self._last_accrue_us = kernel.now
        self._harvest_enabled = True

    # -- state ----------------------------------------------------------------

    @property
    def demand(self) -> float:
        """Current primary-VM demand in cores."""
        return self._demand

    @property
    def allocated(self) -> float:
        """Cores currently available to the primary group."""
        return self._allocated

    @property
    def harvested(self) -> float:
        """Cores currently loaned to the ElasticVM."""
        return self.n_cores - self._allocated

    @property
    def usage(self) -> float:
        """Cores the primary group is actually running on right now."""
        return min(self._demand, self._allocated)

    @property
    def deficit(self) -> float:
        """Cores the primary group wants but cannot get right now."""
        return max(0.0, self._demand - self._allocated)

    # -- control ----------------------------------------------------------------

    def set_demand(self, cores: float) -> None:
        """Workload-side: the primary group now wants ``cores`` cores."""
        if cores < 0:
            raise ValueError("demand must be non-negative")
        self._change(demand=min(float(cores), self._n_cores_f))

    def set_harvested(self, cores: int) -> int:
        """Agent-side: loan ``cores`` cores to the ElasticVM.

        The request is clamped to [0, n_cores].  Returns the applied value.
        This is SmartHarvest's ``TakeAction`` actuation point.
        """
        applied = max(0, min(int(cores), self.n_cores))
        self._change(allocated=float(self.n_cores - applied))
        return applied

    def return_all_cores(self) -> None:
        """Give every core back to the primary group (safeguard/cleanup)."""
        self.set_harvested(0)

    # -- telemetry ----------------------------------------------------------------

    def snapshot(self) -> HypervisorSnapshot:
        """Read cumulative scheduling integrals (accrued to now)."""
        self._accrue()
        return HypervisorSnapshot(
            time_us=self.kernel.now,
            demand_cus=self._demand_cus,
            usage_cus=self._usage_cus,
            deficit_cus=self._deficit_cus,
            elastic_cus=self._elastic_cus,
        )

    def demand_deficit_cus(self) -> Tuple[float, float]:
        """Cumulative ``(demand_cus, deficit_cus)``, accrued to now.

        The exact fields a per-step latency accounting loop needs
        (:class:`~repro.workloads.tailbench.TailBenchWorkload` reads them
        every 25 ms step) without building a :class:`HypervisorSnapshot`
        per step.  Values are the same bits :meth:`snapshot` reports.
        """
        self._accrue()
        return self._demand_cus, self._deficit_cus

    def sample_usage(
        self,
        window_us: int,
        period_us: int,
        rng: Optional[np.random.Generator] = None,
        noise_cores: float = 0.0,
    ) -> np.ndarray:
        """Reconstruct 50 µs-style usage samples over the trailing window.

        Returns one sample per ``period_us`` covering
        ``[now − window_us, now)``, each the usage (cores running) at that
        instant, optionally with truncated Gaussian measurement noise.
        This reproduces the paper's fine-grained telemetry (§3.1: "the
        SmartHarvest agent captures CPU telemetry every 50 µs") without
        simulating per-sample events.
        """
        if period_us <= 0 or window_us <= 0:
            raise ValueError("window and period must be positive")
        now = self.kernel.now
        start = max(0, now - window_us)
        # Sample i sits at time start + i*period; there are ceil((now-start)
        # / period) of them.  Each segment [seg_start, seg_end) covers every
        # sample strictly before seg_end that no earlier segment claimed
        # (samples before retained history take the earliest segment's
        # values), so per segment the covered samples are one contiguous
        # index range — filled with two C-level slice assignments instead
        # of a Python loop per sample (this method runs once per model
        # epoch and dominated fleet wall-clock in the seed profile).
        size = (now - start + period_us - 1) // period_us
        if size <= 0:
            return np.zeros(0)
        if self._sample_demand.size < size:
            self._sample_demand = np.empty(size)
            self._sample_allocated = np.empty(size)
        demand = self._sample_demand[:size]
        allocated = self._sample_allocated[:size]
        # Only segments overlapping [start, now) can claim samples: a
        # segment with seg_end <= start yields a non-positive index
        # ceiling, and the first overlapping segment claims every
        # earlier sample anyway.  History is seg_end-ordered, so walk
        # newest-first and stop at the window edge instead of scanning
        # the whole retained horizon (25 ms window vs 1 s horizon on
        # the harvest path) — same filled values, fewer iterations.
        relevant = []
        for segment in reversed(self._history):
            if segment[1] <= start:
                break
            relevant.append(segment)
        index = 0
        for _seg_start, seg_end, seg_demand, seg_alloc in reversed(relevant):
            if index >= size:
                break
            end = (seg_end - start + period_us - 1) // period_us
            if end > index:
                if end > size:
                    end = size
                demand[index:end] = seg_demand
                allocated[index:end] = seg_alloc
                index = end
        if index < size:  # at/after the open segment start
            demand[index:] = self._demand
            allocated[index:] = self._allocated
        # The result array is freshly allocated (np.minimum's output);
        # noise and clipping then mutate it in place, so the whole call
        # costs one allocation instead of the seed's five.
        usage = np.minimum(demand, allocated)
        if rng is not None and noise_cores > 0.0:
            if self._sample_noise.size < size:
                self._sample_noise = np.empty(size)
            noise = self._sample_noise[:size]
            # Same draws as rng.normal(0.0, noise_cores, size): the
            # scalar-parameter normal is loc + scale * standard_normal
            # per sample off the same bit stream, and loc == 0.0 adds
            # an exact zero.
            rng.standard_normal(out=noise)
            noise *= noise_cores
            usage += noise
            # The method, not np.clip: same clip ufunc call underneath,
            # one Python wrapper layer less.  (maximum + minimum is not
            # a substitute — it differs from clip on -0.0.)
            usage.clip(0.0, allocated, out=usage)
        return usage

    def max_demand_over(self, window_us: int) -> float:
        """Exact maximum primary demand over the trailing window.

        Experiments use this as the ground-truth label when scoring the
        agent's predictions.  History is scanned newest-first and the
        scan stops at the first segment wholly before the window, so a
        short window never pays for the full retained horizon (``max``
        is order-independent, so the result is unchanged).
        """
        now = self.kernel.now
        start = max(0, now - window_us)
        peak = self._demand
        for seg_start, seg_end, seg_demand, _alloc in reversed(self._history):
            if seg_end <= start:
                break
            if seg_start < now:
                peak = max(peak, seg_demand)
        return peak

    # -- internals ----------------------------------------------------------------

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
        # The exact property expressions (usage/deficit/harvested),
        # evaluated once per change instead of once per accrual.
        self._usage_rate = min(self._demand, self._allocated)
        self._deficit_rate = max(0.0, self._demand - self._allocated)
        self._elastic_rate = self.n_cores - self._allocated
        self._segment_start = now

    def _accrue(self) -> None:
        now = self.kernel.now
        elapsed = now - self._last_accrue_us
        if elapsed <= 0:
            return
        self._demand_cus += self._demand * elapsed
        self._usage_cus += self._usage_rate * elapsed
        self._deficit_cus += self._deficit_rate * elapsed
        self._elastic_cus += self._elastic_rate * elapsed
        self._last_accrue_us = now
