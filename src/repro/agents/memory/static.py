"""Static scan-frequency baselines for Figure 7.

"We compare the SmartMemory agent to two baselines without any
safeguards: always scanning at the maximum frequency (300 ms) and always
scanning at the minimum frequency (9.6 s)."

The baseline shares SmartMemory's classification rule (minimal hot set
covering 80% of observed accesses) — only the scan schedule differs, so
the comparison isolates the value of *learned, per-region* scan rates.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.agents.memory.classify import (
    classify_by_coverage,
    infer_access_rates,
)
from repro.agents.memory.config import MemoryConfig
from repro.node.memory import Tier, TieredMemory
from repro.sim.kernel import Kernel, Process

__all__ = ["StaticScanController"]


class StaticScanController:
    """Scan every region at one fixed period; reclassify every epoch.

    Args:
        kernel: simulation kernel.
        memory: two-tier memory substrate.
        period_us: the fixed scan period for all regions.
        config: reused for the classification rule and epoch length.
    """

    def __init__(
        self,
        kernel: Kernel,
        memory: TieredMemory,
        period_us: int,
        config: Optional[MemoryConfig] = None,
        scans_per_reclassify: int = 4,
    ) -> None:
        self.kernel = kernel
        self.memory = memory
        self.period_us = period_us
        self.config = config or MemoryConfig()
        # Reclassification needs a few scans of evidence, so its cadence
        # is proportional to the scan period: a 300 ms scanner adapts in
        # ~1.2 s, a 9.6 s scanner only every ~38 s.  This cadence gap is
        # the mechanism behind the paper's min-frequency SLO collapse —
        # slow scanning both blurs hotness *and* reacts late to shifts.
        self.scans_per_reclassify = scans_per_reclassify
        self._regions = np.arange(memory.n_regions)
        self._bits = np.zeros(memory.n_regions)
        self._scans_since_reclassify = 0
        self._process: Optional[Process] = None
        self.reclassifications = 0

    def start(self) -> "StaticScanController":
        if self._process is not None:
            raise RuntimeError("controller already started")
        self._process = self.kernel.spawn(self._run(), name="static-scan")
        return self

    def stop(self) -> None:
        if self._process is not None:
            self._process.kill()

    def _run(self):
        while True:
            yield self.period_us
            batch = self.memory.scan_many(self._regions)
            # errored scans report zero bits, so they add nothing
            self._bits += batch.set_bits
            self._scans_since_reclassify += 1
            if self._scans_since_reclassify >= self.scans_per_reclassify:
                self._reclassify()

    def _reclassify(self) -> None:
        """Re-rank by inferred access rate and re-place the tiers.

        Uses the same Poisson-occupancy inversion as SmartMemory.  At
        slow scan periods most regions read back saturated, and the
        inversion amplifies the residual binomial noise into an
        essentially random ranking — "sampling at the minimum frequency
        does not provide enough resolution to identify the hottest
        batches" (§6.4), which is what collapses the min-frequency
        baseline's SLO attainment in Figure 7.
        """
        pages = self.memory.pages_per_region
        bits_per_scan = self._bits / max(1, self._scans_since_reclassify)
        rates = infer_access_rates(bits_per_scan, self.period_us, pages)
        hot, warm = classify_by_coverage(
            rates, self._regions, self.config.hot_coverage
        )
        self.memory.migrate_many(hot, Tier.LOCAL)
        self.memory.migrate_many(warm, Tier.REMOTE)
        self._bits[:] = 0.0
        self._scans_since_reclassify = 0
        self.reclassifications += 1
