"""Workload/substrate microbenchmarks, runnable against either path.

Each benchmark takes an *implementation* namespace exposing
``CpuModel``, ``TieredMemory``, ``TailBenchWorkload``,
``ObjectStoreWorkload``, ``DiskSpeedWorkload``, and ``ZipfMemoryTrace``
— either side of :data:`repro.conformance.reference.WORKLOADS_IMPLS`
(the vectorized live path or the frozen pre-optimization path) — so
``repro bench --suite workloads`` can report speedups measured on the
same machine in the same process.

The scenarios isolate the remaining per-event hot loops this PR
attacks (they became the dominant per-step cost once PR 2 moved the
bottleneck out of the kernel and PR 3 out of the ML epoch):

* ``cpu_phase_accounting`` — the CPU substrate under the sampling
  workloads: one phase flip + counter accrual per sample, with the
  occasional agent frequency action.  The seed recomputed every rate
  (two pows + the power polynomial) inside ``_accrue`` and allocated +
  fired a ``cpu.change`` event per flip.
* ``memory_rate_accrual`` — the tiered-memory substrate under the
  SmartMemory scan loop: scans, migrations, and rate pushes, each
  paying one accrual.  The seed rebuilt ``rates * elapsed`` plus two
  boolean tier masks per accrual and recounted ``n_local`` per read.
* ``memory_scan_tick`` — the access-bit scan itself: a full scan of
  all 256 regions every period (the static baselines of Figure 7) plus
  a sparse due-set between periods (SmartMemory's learned per-region
  schedule).  The seed side loops the scalar ``scan``, building one
  ``ScanResult`` and drawing one binomial per region; the live side is
  one ``scan_many`` per tick.  Events are region scans.
* ``zipf_rate_push`` — trace popularity shifts: the seed rebuilt and
  renormalized the Zipf weight vector on every push.
* ``tailbench_step_window`` — the 25 ms TailBench batch-window loop:
  demand step, harvest churn, deficit-ratio latency accounting.  The
  seed materialized a ``HypervisorSnapshot`` dataclass per step.
* ``objectstore_request_accounting`` / ``diskspeed_request_accounting``
  — the 200 ms CPU-workload sampling loops: the seed paid a fresh
  ``ratio ** freq_scaling`` per sample on both the workload and the
  substrate side.

Workload loops are driven exactly as the lockstep bit-identity tests
drive them: the ``_run`` generator is stepped directly and the kernel
clock advanced by each yielded delay, so the scenarios measure the
loop bodies, not kernel dispatch.  Timing uses best-of-``repeats``
wall clock per scenario, like the other suites.
"""

from __future__ import annotations

import time
from typing import Any, Dict

import numpy as np

from repro.node.memory import Tier
from repro.perf.microbench import Bench, BenchResult
from repro.sim import Kernel
from repro.workloads.tailbench import IMAGE_DNN
from repro.workloads.traces import OBJECTSTORE_MEM

__all__ = ["WORKLOADS_MICROBENCHMARKS"]


def _drive(kernel: Kernel, gen: Any, steps: int, on_step=None) -> None:
    """Step a workload ``_run`` generator, advancing the clock manually."""
    delay = next(gen)
    for step in range(steps):
        kernel._now += delay
        if on_step is not None:
            on_step(step)
        delay = gen.send(None)


def _bench_cpu_phase_accounting(impl: Any, scale: float) -> BenchResult:
    iters = max(1, int(40_000 * scale))
    kernel = Kernel()
    cpu = impl.CpuModel(kernel)
    rng = np.random.default_rng(31)
    utilizations = rng.uniform(0.3, 1.0, size=256)
    frequencies = rng.uniform(1.5, 2.3, size=16)
    started = time.perf_counter()
    for i in range(iters):
        kernel._now += 200_000
        cpu.set_phase(utilizations[i % 256], 0.9, 0.9)
        if i % 64 == 0:  # the agent's occasional frequency action
            cpu.set_frequency(frequencies[(i // 64) % 16])
        if i % 16 == 0:  # the agent's counter read
            cpu.snapshot()
    return BenchResult(
        "cpu_phase_accounting", iters, time.perf_counter() - started
    )


def _bench_memory_rate_accrual(impl: Any, scale: float) -> BenchResult:
    # The tiered-memory rate-application path: every SLO-watcher window
    # read, trace rate push, and agent migration batch pays one accrual
    # over the region vectors.  Cadence mirrors fig7: 5 s windows, rate
    # pushes every few windows, a migration batch per decision epoch.
    iters = max(1, int(12_000 * scale))
    n_regions = 256
    kernel = Kernel()
    memory = impl.TieredMemory(kernel, n_regions=n_regions)
    rng = np.random.default_rng(37)
    rate_vectors = rng.uniform(0.0, 5000.0, size=(8, n_regions))
    regions = rng.integers(0, n_regions, size=512)
    memory.set_rates(rate_vectors[0])
    started = time.perf_counter()
    for i in range(iters):
        kernel._now += 5_000_000  # the 5 s SLO window cadence
        memory.snapshot()
        memory.n_local
        if i % 4 == 0:
            memory.set_rates(rate_vectors[(i // 4) % 8])
        if i % 16 == 0:
            base = (i // 16) % 64
            tier = Tier.REMOTE if (i // 16) % 2 else Tier.LOCAL
            memory.migrate_many(
                (int(r) for r in regions[base:base + 8]), tier
            )
    return BenchResult(
        "memory_rate_accrual", iters, time.perf_counter() - started
    )


def _bench_memory_scan_tick(impl: Any, scale: float) -> BenchResult:
    ticks = max(1, int(400 * scale))
    n_regions = 256
    kernel = Kernel()
    memory = impl.TieredMemory(
        kernel, n_regions=n_regions, rng=np.random.default_rng(61)
    )
    if hasattr(memory, "scan_many"):
        scan_tick = memory.scan_many
    else:  # the frozen seed substrate only scans one region at a time

        def scan_tick(regions):
            return [memory.scan(region) for region in regions.tolist()]

    rng = np.random.default_rng(67)
    memory.set_rates(rng.uniform(0.0, 5000.0, size=n_regions))
    everything = np.arange(n_regions)
    due_sets = [
        np.flatnonzero(rng.random(n_regions) < 0.125) for _ in range(16)
    ]
    scans = 0
    started = time.perf_counter()
    for tick in range(ticks):
        kernel._now += 150_000
        due = due_sets[tick % 16]
        scans += len(scan_tick(due))
        kernel._now += 150_000  # the 300 ms maximum-frequency period
        scans += len(scan_tick(everything))
    return BenchResult(
        "memory_scan_tick", scans, time.perf_counter() - started
    )


def _bench_zipf_rate_push(impl: Any, scale: float) -> BenchResult:
    iters = max(1, int(4_000 * scale))
    kernel = Kernel()
    memory = impl.TieredMemory(kernel, n_regions=256)
    trace = impl.ZipfMemoryTrace(
        kernel, memory, np.random.default_rng(41), OBJECTSTORE_MEM
    )
    interval = OBJECTSTORE_MEM.shift_interval_us
    started = time.perf_counter()
    trace.apply_rates()
    for _ in range(iters):
        kernel._now += interval
        trace.shift_popularity()
        trace.apply_rates()
    return BenchResult(
        "zipf_rate_push", iters, time.perf_counter() - started
    )


def _bench_tailbench_step_window(impl: Any, scale: float) -> BenchResult:
    steps = max(1, int(20_000 * scale))
    kernel = Kernel()
    hypervisor = impl.Hypervisor(
        kernel, n_cores=8, history_horizon_us=1_000_000
    )
    workload = impl.TailBenchWorkload(
        kernel, hypervisor, np.random.default_rng(43), IMAGE_DNN
    )
    rng = np.random.default_rng(47)
    harvests = rng.integers(0, 8, size=256)

    def churn(step):
        if step % 5 == 0:  # agent-side harvest actions create deficits
            hypervisor.set_harvested(int(harvests[(step // 5) % 256]))

    started = time.perf_counter()
    _drive(kernel, workload._run(), steps, churn)
    return BenchResult(
        "tailbench_step_window", steps, time.perf_counter() - started
    )


def _bench_cpu_workload(
    name: str, workload_attr: str, impl: Any, scale: float
) -> BenchResult:
    steps = max(1, int(20_000 * scale))
    kernel = Kernel()
    cpu = impl.CpuModel(kernel)
    workload = getattr(impl, workload_attr)(
        kernel, cpu, np.random.default_rng(53)
    )
    rng = np.random.default_rng(59)
    frequencies = rng.uniform(1.5, 2.3, size=64)

    def agent(step):
        if step % 50 == 0:  # occasional agent frequency action
            cpu.set_frequency(frequencies[(step // 50) % 64])

    started = time.perf_counter()
    _drive(kernel, workload._run(), steps, agent)
    return BenchResult(name, steps, time.perf_counter() - started)


def _bench_objectstore(impl: Any, scale: float) -> BenchResult:
    return _bench_cpu_workload(
        "objectstore_request_accounting", "ObjectStoreWorkload", impl, scale
    )


def _bench_diskspeed(impl: Any, scale: float) -> BenchResult:
    return _bench_cpu_workload(
        "diskspeed_request_accounting", "DiskSpeedWorkload", impl, scale
    )


#: Scenario registry: name -> scenario.
WORKLOADS_MICROBENCHMARKS: Dict[str, Bench] = {
    "cpu_phase_accounting": _bench_cpu_phase_accounting,
    "memory_rate_accrual": _bench_memory_rate_accrual,
    "memory_scan_tick": _bench_memory_scan_tick,
    "zipf_rate_push": _bench_zipf_rate_push,
    "tailbench_step_window": _bench_tailbench_step_window,
    "objectstore_request_accounting": _bench_objectstore,
    "diskspeed_request_accounting": _bench_diskspeed,
}
