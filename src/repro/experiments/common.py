"""Shared experiment infrastructure: node helpers and result types.

Every figure/table reproduction runs nodes assembled by
:func:`repro.fleet.node.build_node` on the paper's ``gen5-general`` SKU,
plus the helpers here: mean power, a static-frequency overclock node, a
memory node with its windowed SLO watcher, and a plain-text table
renderer.  Experiments are deterministic given a seed; EXPERIMENTS.md
records the measured outputs against the paper's.

Experiments read ``runtime.stats()``, the runtime's and safeguards'
own fields (action provenance, first fallback, activation windows) and
the node's own counters; the agent's event log only counts and
forwards, keeping no per-event history (DESIGN.md §6).  A caller that
needs individual events attaches a sink to ``node.agent.runtime.log``
before running the node.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.agents.memory import MemoryConfig, StaticScanController
from repro.core.events import canonical_scalar
from repro.digest import content_digest
from repro.fleet.node import GEN5, Node, build_node
from repro.node.memory import TieredMemory
from repro.sim import Kernel
from repro.sim.units import SEC

__all__ = [
    "ExperimentResult",
    "SloWatcher",
    "experiment_digest",
    "mean_watts",
    "memory_node",
    "overclock_node",
]


@dataclass
class ExperimentResult:
    """Rows of one table/figure reproduction plus rendering.

    Attributes:
        name: experiment identifier ("fig1", "table2", ...).
        title: what the paper's artifact shows.
        columns: ordered column names.
        rows: list of dicts keyed by column name.
        notes: reproduction caveats worth printing with the data.
    """

    name: str
    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def render(self) -> str:
        """Plain-text rendering in the paper's row/series layout."""
        widths = {
            col: max(
                len(col),
                *(len(self.format_cell(row.get(col))) for row in self.rows),
            )
            if self.rows
            else len(col)
            for col in self.columns
        }
        lines = [f"== {self.name}: {self.title} =="]
        lines.append(
            "  ".join(col.ljust(widths[col]) for col in self.columns)
        )
        lines.append(
            "  ".join("-" * widths[col] for col in self.columns)
        )
        for row in self.rows:
            lines.append(
                "  ".join(
                    self.format_cell(row.get(col)).ljust(widths[col])
                    for col in self.columns
                )
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    @staticmethod
    def format_cell(value: Any) -> str:
        """Render one cell the way :meth:`render` does (public for
        alternative renderers, e.g. the CLI's markdown emitter)."""
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)


# One canonicalization for every content digest in the repo: the
# conformance known-answer vectors reuse it for terminal-state
# snapshots, so the shared definition lives with the event encoding.
_canonical_cell = canonical_scalar


def experiment_digest(result: "ExperimentResult") -> str:
    """Float-exact, type-canonical digest of an :class:`ExperimentResult`.

    The same canonicalization the golden-digest tests pin (they keep an
    independent copy on purpose); the bench harness uses this one to
    record that an optimized pass still reproduces every row bit.
    """
    return content_digest({
        "name": result.name,
        "columns": [str(column) for column in result.columns],
        "rows": [
            {str(k): _canonical_cell(v) for k, v in row.items()}
            for row in result.rows
        ],
    })


class SloWatcher:
    """Windowed local-access-fraction tracking for memory experiments.

    Samples the remote/local access split every ``window_us`` and records
    whether each window met the paper's 80%-local SLO.
    """

    def __init__(
        self,
        kernel: Kernel,
        memory: TieredMemory,
        window_us: int = 5 * SEC,
        warmup_us: int = 0,
    ) -> None:
        self.kernel = kernel
        self.memory = memory
        self.window_us = window_us
        self.warmup_us = warmup_us
        self.local_fractions: List[float] = []
        self.n_local_series: List[int] = []
        self.resets_at_warmup: Optional[int] = None
        kernel.spawn(self._run(), name="slo-watcher")

    def _run(self):
        previous = self.memory.snapshot()
        while True:
            yield self.window_us
            current = self.memory.snapshot()
            if (
                self.resets_at_warmup is None
                and self.kernel.now >= self.warmup_us
            ):
                self.resets_at_warmup = current.bit_resets
            local = current.local_accesses - previous.local_accesses
            total = current.total_accesses - previous.total_accesses
            previous = current
            if self.kernel.now <= self.warmup_us:
                continue
            if total > 0:
                self.local_fractions.append(local / total)
            self.n_local_series.append(self.memory.n_local)

    def slo_attainment(self, target: float = 0.8) -> float:
        """Fraction of measured windows meeting the local-access target."""
        if not self.local_fractions:
            return float("nan")
        return float(
            np.mean([f >= target for f in self.local_fractions])
        )

    def mean_local_regions(self) -> float:
        """Average number of first-tier regions over the measured run."""
        if not self.n_local_series:
            return float(self.memory.n_local)
        return float(np.mean(self.n_local_series))

    def steady_state_resets(self) -> int:
        """Access-bit resets after the warmup cut."""
        total = self.memory.snapshot().bit_resets
        return total - (self.resets_at_warmup or 0)


def mean_watts(node: Node) -> float:
    """Mean CPU power of an overclock node over the run so far."""
    return node.model.snapshot().energy_joules / (node.kernel.now / SEC)


def overclock_node(
    workload_factory: Callable,
    seed: int = 0,
    static_freq_ghz: Optional[float] = None,
    **agent_kwargs: Any,
) -> Node:
    """The paper's SmartOverclock node, or, given ``static_freq_ghz``,
    the same node with no agent and the CPU held at that frequency."""
    if static_freq_ghz is None:
        return build_node("overclock", workload_factory, seed, **agent_kwargs)
    return build_node(
        "overclock", workload_factory, seed, agent=False,
        before_agent=lambda node: node.model.set_frequency(static_freq_ghz),
    )


def memory_node(
    trace_factory: Callable,
    seed: int = 0,
    n_regions: int = 256,
    warmup_seconds: int = 0,
    static_scan_us: Optional[int] = None,
    **agent_kwargs: Any,
) -> Tuple[Node, SloWatcher]:
    """The paper's SmartMemory node with ``n_regions`` regions, and its
    SLO watcher (spawned after the agent).

    Given ``static_scan_us``, a :class:`StaticScanController` at that
    period starts in place of the agent.
    """

    def start_static_scanner(node: Node) -> None:
        StaticScanController(
            node.kernel, node.model, static_scan_us, MemoryConfig()
        ).start()

    node = build_node(
        "memory",
        trace_factory,
        seed,
        sku=replace(GEN5, memory_regions=n_regions),
        agent=static_scan_us is None,
        before_agent=None if static_scan_us is None else start_static_scanner,
        **agent_kwargs,
    )
    watcher = SloWatcher(
        node.kernel, node.model, warmup_us=warmup_seconds * SEC
    )
    return node, watcher
