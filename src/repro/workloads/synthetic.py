"""The paper's Synthetic workload (§6.2).

"The Synthetic workload simulates a server that periodically (every 100
secs) receives a batch of compute-intensive requests and processes them
as quickly as possible, then is idle until the next batch arrives.  This
workload only benefits from overclocking during its request-processing
phases.  Performance is measured as the total time to complete a fixed
number of batches."

The alternating busy/idle structure is what exercises SmartOverclock's
learning (overclock the batch, not the idle gap) and what Figures 4 and
5 use to show the cost of stale decisions during phase changes.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.node.cpu import CpuModel
from repro.sim.units import SEC
from repro.workloads.base import PerformanceReport, Workload

__all__ = ["SyntheticBatchWorkload"]


class SyntheticBatchWorkload(Workload):
    """Periodic compute batches separated by idle gaps.

    Args:
        kernel: simulation kernel.
        cpu: the VM's CPU substrate.
        period_us: batch arrival period (100 s in the paper; shrink for
            tests).
        batch_giga_instructions: work per batch.  The default sizes the
            batch to ~55% duty cycle at the nominal frequency.
        boundness: CPU-boundness during processing (high: the batch
            benefits from overclocking).
        freq_scaling: IPS-vs-frequency exponent during processing.
        n_batches: stop after this many batches (``None`` = run forever).
    """

    name = "synthetic"

    def __init__(
        self,
        kernel,
        cpu: CpuModel,
        period_us: int = 100 * SEC,
        batch_giga_instructions: Optional[float] = None,
        boundness: float = 0.95,
        freq_scaling: float = 1.0,
        n_batches: Optional[int] = None,
    ) -> None:
        super().__init__(kernel)
        self.cpu = cpu
        self.period_us = period_us
        if batch_giga_instructions is None:
            nominal_ips = (
                cpu.n_cores * cpu.max_ipc * cpu.nominal_freq_ghz * boundness
            )
            batch_giga_instructions = 0.55 * (period_us / SEC) * nominal_ips
        self.batch_giga_instructions = batch_giga_instructions
        self.boundness = boundness
        self.freq_scaling = freq_scaling
        self.n_batches = n_batches

        #: (start_us, end_us) of each completed batch.
        self.batch_windows: List[tuple] = []
        #: observers invoked with the batch index when a batch completes
        #: (experiments hook delay injection here, e.g. Figure 4).
        self.on_batch_end: List[Callable[[int], None]] = []
        self.batches_completed = 0

    def _run(self):
        batch_index = 0
        while self.n_batches is None or batch_index < self.n_batches:
            arrival = batch_index * self.period_us
            if self.kernel.now < arrival:
                yield arrival - self.kernel.now
            start = self.kernel.now
            self.cpu.set_phase(
                utilization=1.0,
                boundness=self.boundness,
                freq_scaling=self.freq_scaling,
            )
            yield from self.cpu.run_work(self.batch_giga_instructions)
            self.cpu.set_phase(utilization=0.0)
            self.batch_windows.append((start, self.kernel.now))
            self.batches_completed += 1
            for callback in self.on_batch_end:
                callback(batch_index)
            batch_index += 1

    def performance(self) -> PerformanceReport:
        """Mean batch completion time (seconds): lower is better.

        Proportional to the paper's "total time to complete a fixed
        number of batches" once the batch count is fixed.
        """
        if not self.batch_windows:
            raise ValueError("no batches completed yet")
        durations = [
            (end - start) / SEC for start, end in self.batch_windows
        ]
        return PerformanceReport(
            metric="mean batch time (s)",
            value=sum(durations) / len(durations),
            higher_is_better=False,
        )
