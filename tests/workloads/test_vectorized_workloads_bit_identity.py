"""Bit-identity: vectorized workload/substrate loops vs the frozen copies.

The cached-rate ``CpuModel``, the index-cached ``TieredMemory``, the
snapshot-free ``TailBenchWorkload`` window accounting, the pow-cached
CPU workloads, and the weight-memoized Zipf traces must reproduce the
frozen pre-optimization implementations in
``repro.conformance.reference.workloads`` *exactly* — same counters, same
samples, same rates, same scan results — under identical random streams
and identical driving sequences.  Anything less would silently flip the
pinned fleet/artifact digests.

Substrate objects are driven on real kernels whose clock is advanced
directly (no processes are involved; only ``kernel.now`` matters), and
workload ``_run`` generators are stepped in lockstep by sending their
yielded delays back as elapsed time — the same pattern the workloads
microbenchmarks use.
"""

import numpy as np
import pytest

import repro.conformance.reference.workloads as legacy
from repro.node.cpu import CpuModel
from repro.node.hypervisor import Hypervisor
from repro.node.memory import TieredMemory, Tier
from repro.sim import Kernel
from repro.workloads.diskspeed import DiskSpeedWorkload
from repro.workloads.objectstore import ObjectStoreWorkload
from repro.workloads.tailbench import IMAGE_DNN, MOSES, TailBenchWorkload
from repro.workloads.traces import (
    OBJECTSTORE_MEM,
    SPECJBB_MEM,
    SQL_MEM,
    ZipfMemoryTrace,
    zipf_rates,
)


def _advance(kernels, delta_us):
    for kernel in kernels:
        kernel._now += delta_us


def _assert_cpu_equal(live_cpu, frozen_cpu):
    got = live_cpu.snapshot()
    want = frozen_cpu.snapshot()
    assert got == want
    assert live_cpu.ips_rate() == frozen_cpu.ips_rate()
    assert live_cpu.instantaneous_watts() == frozen_cpu.instantaneous_watts()
    assert live_cpu.alpha == frozen_cpu.alpha


@pytest.mark.parametrize("seed", [0, 1])
def test_cpu_model_lockstep_1k_steps(seed):
    """Cached-rate accounting == per-accrual recomputation, bit for bit."""
    k_live, k_frozen = Kernel(), Kernel()
    live = CpuModel(k_live)
    frozen = legacy.CpuModel(k_frozen)
    drive = np.random.default_rng(seed)
    for step in range(1000):
        _advance((k_live, k_frozen), int(drive.integers(1, 500_000)))
        roll = drive.random()
        if roll < 0.6:
            utilization = float(drive.uniform(0.0, 1.0))
            boundness = float(drive.uniform(0.0, 1.0))
            scaling = float(drive.uniform(0.0, 1.0))
            live.set_phase(utilization, boundness, scaling)
            frozen.set_phase(utilization, boundness, scaling)
        elif roll < 0.8:
            freq = float(drive.uniform(0.8, 3.0))
            assert live.set_frequency(freq) == frozen.set_frequency(freq)
        if step % 7 == 0:
            _assert_cpu_equal(live, frozen)
    _assert_cpu_equal(live, frozen)


def test_cpu_model_utilization_only_phase_flips():
    """The pow cache path: thousands of phase flips at constant freq."""
    k_live, k_frozen = Kernel(), Kernel()
    live = CpuModel(k_live)
    frozen = legacy.CpuModel(k_frozen)
    drive = np.random.default_rng(3)
    live.set_frequency(2.1)
    frozen.set_frequency(2.1)
    for _ in range(2000):
        _advance((k_live, k_frozen), 200_000)
        utilization = float(drive.uniform(0.3, 1.0))
        live.set_phase(utilization, boundness=0.9, freq_scaling=0.9)
        frozen.set_phase(utilization, boundness=0.9, freq_scaling=0.9)
    _assert_cpu_equal(live, frozen)


@pytest.mark.parametrize("seed", [0, 2])
def test_tiered_memory_lockstep_1k_ops(seed):
    """Index-cached accrual == boolean-mask accrual across scan/migrate."""
    k_live, k_frozen = Kernel(), Kernel()
    n_regions = 96
    live = TieredMemory(
        k_live, n_regions=n_regions, pages_per_region=512,
        rng=np.random.default_rng(seed),
    )
    frozen = legacy.TieredMemory(
        k_frozen, n_regions=n_regions, pages_per_region=512,
        rng=np.random.default_rng(seed),
    )
    live.set_scan_fault_probability(0.05)
    frozen.set_scan_fault_probability(0.05)
    drive = np.random.default_rng(seed + 100)
    rates = drive.uniform(0.0, 5000.0, n_regions)
    live.set_rates(rates)
    frozen.set_rates(rates)
    for step in range(1000):
        _advance((k_live, k_frozen), int(drive.integers(1, 2_000_000)))
        roll = drive.random()
        if roll < 0.5:
            region = int(drive.integers(0, n_regions))
            assert live.scan(region) == frozen.scan(region)
        elif roll < 0.8:
            region = int(drive.integers(0, n_regions))
            tier = Tier.REMOTE if drive.random() < 0.5 else Tier.LOCAL
            assert live.migrate(region, tier) == frozen.migrate(region, tier)
        else:
            rates = drive.uniform(0.0, 5000.0, n_regions)
            live.set_rates(rates)
            frozen.set_rates(rates)
        if step % 13 == 0:
            assert live.snapshot() == frozen.snapshot()
            assert live.n_local == frozen.n_local
            assert np.array_equal(live.local_regions, frozen.local_regions)
            assert np.array_equal(live.remote_regions, frozen.remote_regions)
            assert np.array_equal(
                live.true_region_accesses(), frozen.true_region_accesses()
            )
    assert live.snapshot() == frozen.snapshot()


def _memory_pair(seed, n_regions=96, with_rng=True):
    k_live, k_frozen = Kernel(), Kernel()
    live = TieredMemory(
        k_live, n_regions=n_regions, pages_per_region=512,
        rng=np.random.default_rng(seed) if with_rng else None,
    )
    frozen = legacy.TieredMemory(
        k_frozen, n_regions=n_regions, pages_per_region=512,
        rng=np.random.default_rng(seed) if with_rng else None,
    )
    return (k_live, k_frozen), live, frozen


def _assert_scan_many_equals_frozen_loop(live, frozen, regions):
    """One batched tick == the seed model's per-region scan loop."""
    batch = live.scan_many(regions)
    want = [frozen.scan(int(region)) for region in regions]
    assert len(batch) == len(want)
    assert list(batch) == want  # ScanResult equality is field by field
    assert live.snapshot() == frozen.snapshot()
    if live.rng is not None:
        # same rng state afterwards: the batch consumed exactly the
        # draws the scalar loop did (one draw from each keeps them paired)
        assert live.rng.random() == frozen.rng.random()


@pytest.mark.parametrize("with_rng", [True, False])
@pytest.mark.parametrize("seed", [0, 2])
def test_scan_many_equals_frozen_per_region_loop(seed, with_rng):
    """All-regions ticks, sparse due-sets and idle regions, rng or not."""
    kernels, live, frozen = _memory_pair(seed, with_rng=with_rng)
    n_regions = live.n_regions
    drive = np.random.default_rng(seed + 200)
    everything = np.arange(n_regions)
    for step in range(120):
        _advance(kernels, int(drive.integers(1, 3_000_000)))
        if step % 10 == 0:
            rates = drive.uniform(0.0, 5000.0, n_regions)
            # a third of the regions are idle: zero accrued accesses,
            # so the scalar path draws nothing for them
            rates[drive.random(n_regions) < 0.33] = 0.0
            live.set_rates(rates)
            frozen.set_rates(rates)
        if step % 3 == 0:
            regions = everything
        else:  # sparse due-set, in flatnonzero (ascending) order
            regions = np.flatnonzero(drive.random(n_regions) < 0.2)
        _assert_scan_many_equals_frozen_loop(live, frozen, regions)
        if step % 7 == 0:
            # rescanning at the same instant: every region has zero
            # accrued accesses (a whole batch that draws nothing)
            _assert_scan_many_equals_frozen_loop(live, frozen, regions)
        if step % 5 == 0:
            moving = drive.choice(n_regions, size=12, replace=False)
            tier = Tier.REMOTE if drive.random() < 0.5 else Tier.LOCAL
            assert live.migrate_many(moving, tier) == frozen.migrate_many(
                moving.tolist(), tier
            )
    assert np.array_equal(
        live.true_region_accesses(), frozen.true_region_accesses()
    )


def test_scan_many_equals_frozen_loop_across_a_fault_window():
    """Fault window on then off: random()/binomial() interleave inside."""
    kernels, live, frozen = _memory_pair(seed=4)
    n_regions = live.n_regions
    drive = np.random.default_rng(17)
    rates = drive.uniform(0.0, 5000.0, n_regions)
    rates[::5] = 0.0
    live.set_rates(rates)
    frozen.set_rates(rates)
    errors = 0
    for step in range(90):
        _advance(kernels, int(drive.integers(1, 2_000_000)))
        if step == 30:
            live.set_scan_fault_probability(0.05)
            frozen.set_scan_fault_probability(0.05)
        if step == 60:
            live.set_scan_fault_probability(0.0)
            frozen.set_scan_fault_probability(0.0)
        if step % 2 == 0:
            regions = np.arange(n_regions)
        else:
            regions = np.flatnonzero(drive.random(n_regions) < 0.25)
        before = live.snapshot().pages_scanned
        _assert_scan_many_equals_frozen_loop(live, frozen, regions)
        scanned = (live.snapshot().pages_scanned - before) // 512
        errors += len(regions) - scanned
        if not 30 <= step < 60:
            assert scanned == len(regions)
    assert errors > 0  # the window actually injected driver errors


def test_migrate_many_counts_each_moved_region_once():
    """Repeats in one call move once; the accrual split is unchanged."""
    kernels, live, frozen = _memory_pair(seed=6)
    rates = np.random.default_rng(8).uniform(0.0, 5000.0, live.n_regions)
    live.set_rates(rates)
    frozen.set_rates(rates)
    _advance(kernels, 1_500_000)
    regions = [3, 7, 3, 11, 7, 90]
    assert live.migrate_many(regions, Tier.REMOTE) == 4
    assert frozen.migrate_many(regions, Tier.REMOTE) == 4
    _advance(kernels, 700_000)
    # nothing moves: neither implementation accrues here
    assert live.migrate_many(iter(regions), Tier.REMOTE) == 0
    assert frozen.migrate_many(iter(regions), Tier.REMOTE) == 0
    _advance(kernels, 300_000)
    assert live.snapshot() == frozen.snapshot()
    assert np.array_equal(live.remote_regions, frozen.remote_regions)


def _drive_lockstep(kernels, generators, steps, on_step=None):
    """Step workload generators together, sending elapsed time back."""
    delays = [next(gen) for gen in generators]
    for step in range(steps):
        assert len(set(delays)) == 1  # loops must stay in lockstep
        _advance(kernels, delays[0])
        if on_step is not None:
            on_step(step)
        delays = [gen.send(None) for gen in generators]


@pytest.mark.parametrize("profile", [IMAGE_DNN, MOSES])
def test_tailbench_lockstep_1k_steps(profile):
    """Batch-window accounting == per-step snapshot deltas, bit for bit."""
    k_live, k_frozen = Kernel(), Kernel()
    hv_live = Hypervisor(k_live, n_cores=8, history_horizon_us=1_000_000)
    hv_frozen = legacy.Hypervisor(
        k_frozen, n_cores=8, history_horizon_us=1_000_000
    )
    live = TailBenchWorkload(
        k_live, hv_live, np.random.default_rng(11), profile
    )
    frozen = legacy.TailBenchWorkload(
        k_frozen, hv_frozen, np.random.default_rng(11), profile
    )
    drive = np.random.default_rng(17)

    def churn(step):
        # Harvest churn creates real deficits so the starvation branch
        # (deficit_ratio > 0) is exercised, not just the zero path.
        if step % 5 == 0:
            harvested = int(drive.integers(0, 8))
            hv_live.set_harvested(harvested)
            hv_frozen.set_harvested(harvested)

    _drive_lockstep(
        (k_live, k_frozen), (live._run(), frozen._run()), 1000, churn
    )
    assert live.latency_samples_ms == frozen.latency_samples_ms
    assert any(s > profile.base_latency_ms * 1.3
               for s in live.latency_samples_ms)
    assert live.performance() == frozen.performance()
    assert hv_live.snapshot() == hv_frozen.snapshot()


def test_objectstore_lockstep_1k_steps():
    """Pow-cached request accounting == per-sample recomputation."""
    k_live, k_frozen = Kernel(), Kernel()
    cpu_live = CpuModel(k_live)
    cpu_frozen = legacy.CpuModel(k_frozen)
    live = ObjectStoreWorkload(k_live, cpu_live, np.random.default_rng(5))
    frozen = legacy.ObjectStoreWorkload(
        k_frozen, cpu_frozen, np.random.default_rng(5)
    )
    drive = np.random.default_rng(23)

    def agent(step):
        if step % 37 == 0:  # the agent's occasional frequency action
            freq = float(drive.uniform(1.5, 2.3))
            cpu_live.set_frequency(freq)
            cpu_frozen.set_frequency(freq)

    _drive_lockstep(
        (k_live, k_frozen), (live._run(), frozen._run()), 1000, agent
    )
    assert live.latency_samples_ms == frozen.latency_samples_ms
    assert live.performance() == frozen.performance()
    _assert_cpu_equal(cpu_live, cpu_frozen)


def test_diskspeed_lockstep_1k_steps():
    k_live, k_frozen = Kernel(), Kernel()
    cpu_live = CpuModel(k_live)
    cpu_frozen = legacy.CpuModel(k_frozen)
    live = DiskSpeedWorkload(k_live, cpu_live, np.random.default_rng(9))
    frozen = legacy.DiskSpeedWorkload(
        k_frozen, cpu_frozen, np.random.default_rng(9)
    )
    drive = np.random.default_rng(29)

    def agent(step):
        if step % 41 == 0:
            freq = float(drive.uniform(1.5, 2.3))
            cpu_live.set_frequency(freq)
            cpu_frozen.set_frequency(freq)

    _drive_lockstep(
        (k_live, k_frozen), (live._run(), frozen._run()), 1000, agent
    )
    assert live.throughput_samples == frozen.throughput_samples
    assert live.performance() == frozen.performance()
    _assert_cpu_equal(cpu_live, cpu_frozen)


@pytest.mark.parametrize("profile", [OBJECTSTORE_MEM, SQL_MEM, SPECJBB_MEM])
def test_zipf_rates_match_legacy(profile):
    """Memoized scaled weights == per-call rebuild, for every profile."""
    rng = np.random.default_rng(1)
    for n_regions in (16, 96, 256):
        permutation = rng.permutation(n_regions)
        assert np.array_equal(
            zipf_rates(n_regions, profile, permutation),
            legacy.zipf_rates(n_regions, profile, permutation),
        )


def test_zipf_trace_lockstep_shift_cycles():
    """Buffer-reusing rate pushes == fresh-vector pushes over 200 shifts."""
    k_live, k_frozen = Kernel(), Kernel()
    n_regions = 128
    mem_live = TieredMemory(k_live, n_regions=n_regions)
    mem_frozen = legacy.TieredMemory(k_frozen, n_regions=n_regions)
    live = ZipfMemoryTrace(
        k_live, mem_live, np.random.default_rng(2), SQL_MEM
    )
    frozen = legacy.ZipfMemoryTrace(
        k_frozen, mem_frozen, np.random.default_rng(2), SQL_MEM
    )
    assert np.array_equal(live.permutation, frozen.permutation)
    _drive_lockstep((k_live, k_frozen), (live._run(), frozen._run()), 200)
    assert live.shifts == frozen.shifts == 200
    assert np.array_equal(live.permutation, frozen.permutation)
    assert np.array_equal(mem_live.rates, mem_frozen.rates)
    assert mem_live.snapshot() == mem_frozen.snapshot()
    assert live.performance() == frozen.performance()
