"""Tests for the two-tier memory substrate."""

import numpy as np
import pytest

from repro.node.memory import Tier, TieredMemory
from repro.sim import Kernel, RngStreams
from repro.sim.units import MS, SEC


def make_memory(kernel=None, n_regions=8, pages=512, rng=None):
    return TieredMemory(
        kernel or Kernel(),
        n_regions=n_regions,
        pages_per_region=pages,
        rng=rng,
    )


def test_all_regions_start_local():
    memory = make_memory()
    assert memory.n_local == 8
    assert memory.remote_regions.size == 0


def test_accesses_accrue_to_local_counter():
    kernel = Kernel()
    memory = make_memory(kernel, n_regions=4)
    memory.set_rates([100.0, 0.0, 0.0, 0.0])
    kernel.run(until=2 * SEC)
    snap = memory.snapshot()
    assert snap.local_accesses == pytest.approx(200.0)
    assert snap.remote_accesses == pytest.approx(0.0)


def test_remote_accesses_after_migration():
    kernel = Kernel()
    memory = make_memory(kernel, n_regions=4)
    memory.set_rates([100.0, 50.0, 0.0, 0.0])
    memory.migrate(0, Tier.REMOTE)
    kernel.run(until=1 * SEC)
    snap = memory.snapshot()
    assert snap.remote_accesses == pytest.approx(100.0)
    assert snap.local_accesses == pytest.approx(50.0)
    assert snap.remote_fraction() == pytest.approx(100.0 / 150.0)


def test_migration_is_idempotent_and_counted():
    memory = make_memory()
    assert memory.migrate(3, Tier.REMOTE) is True
    assert memory.migrate(3, Tier.REMOTE) is False
    assert memory.snapshot().migrations == 1
    assert memory.tier_of(3) is Tier.REMOTE


def test_migrate_many_returns_moved_count():
    memory = make_memory()
    moved = memory.migrate_many([0, 1, 1, 2], Tier.REMOTE)
    assert moved == 3
    assert memory.n_local == 5


def test_scan_observes_poisson_occupancy_expectation():
    kernel = Kernel()
    memory = make_memory(kernel, n_regions=2, pages=512)
    memory.set_rates([512.0, 0.0])  # one access per page per second on avg
    kernel.run(until=1 * SEC)
    result = memory.scan(0)
    expected = 512 * (1 - np.exp(-1.0))
    assert result.set_bits == pytest.approx(expected, abs=1)
    assert not result.saturated
    assert memory.scan(1).set_bits == 0


def test_scan_clears_bits_so_next_scan_sees_only_new_accesses():
    kernel = Kernel()
    memory = make_memory(kernel, n_regions=1)
    memory.set_rates([512.0])
    kernel.run(until=1 * SEC)
    first = memory.scan(0)
    second = memory.scan(0)  # immediately after: no new accesses
    assert first.set_bits > 0
    assert second.set_bits == 0


def test_slow_scanning_saturates_hot_region():
    kernel = Kernel()
    memory = make_memory(kernel, n_regions=1)
    memory.set_rates([50_000.0])
    kernel.run(until=10 * SEC)  # ~1000 accesses per page: all bits set
    result = memory.scan(0)
    assert result.saturated
    assert result.set_bits == 512


def test_reset_accounting_counts_cleared_bits():
    kernel = Kernel()
    memory = make_memory(kernel, n_regions=2)
    memory.set_rates([512.0, 512.0])
    kernel.run(until=1 * SEC)
    a = memory.scan(0)
    b = memory.scan(1)
    snap = memory.snapshot()
    assert snap.bit_resets == a.set_bits + b.set_bits
    assert snap.pages_scanned == 2 * 512


def test_scan_faults_fail_reading_and_leave_bits():
    kernel = Kernel()
    rng = RngStreams(3).get("memfault")
    memory = make_memory(kernel, n_regions=1, rng=rng)
    memory.set_scan_fault_probability(1.0)
    memory.set_rates([512.0])
    kernel.run(until=1 * SEC)
    failed = memory.scan(0)
    assert failed.error
    assert failed.set_bits == 0
    memory.set_scan_fault_probability(0.0)
    ok = memory.scan(0)
    assert not ok.error
    assert ok.set_bits > 0  # bits survived the failed scan


def test_scan_fault_requires_rng():
    memory = make_memory(rng=None)
    with pytest.raises(ValueError):
        memory.set_scan_fault_probability(0.5)


def test_true_region_accesses_ground_truth():
    kernel = Kernel()
    memory = make_memory(kernel, n_regions=3)
    memory.set_rates([10.0, 20.0, 0.0])
    kernel.run(until=10 * SEC)
    truth = memory.true_region_accesses()
    assert truth == pytest.approx([100.0, 200.0, 0.0])


def test_rate_vector_shape_validated():
    memory = make_memory(n_regions=4)
    with pytest.raises(ValueError):
        memory.set_rates([1.0, 2.0])
    with pytest.raises(ValueError):
        memory.set_rates([-1.0, 0.0, 0.0, 0.0])


def test_region_bounds_checked():
    memory = make_memory(n_regions=4)
    with pytest.raises(IndexError):
        memory.scan(4)
    with pytest.raises(IndexError):
        memory.migrate(-1, Tier.REMOTE)


def test_scan_many_bounds_checked_once_with_the_scalar_message():
    memory = make_memory(n_regions=4)
    memory.set_rates([100.0] * 4)
    memory.kernel._now += 1 * SEC
    for bad in (4, -1):
        with pytest.raises(IndexError) as scalar:
            memory.scan(bad)
        with pytest.raises(IndexError) as batched:
            memory.scan_many([0, bad, 2])
        assert str(batched.value) == str(scalar.value)
    with pytest.raises(IndexError):
        memory.migrate_many([1, 9], Tier.REMOTE)
    # a rejected batch scanned and moved nothing
    assert memory.snapshot().pages_scanned == 0
    assert memory.n_local == 4


def test_scan_many_rejects_duplicate_regions():
    memory = make_memory(n_regions=4)
    memory.set_rates([100.0] * 4)
    memory.kernel._now += 1 * SEC
    with pytest.raises(ValueError, match="duplicate"):
        memory.scan_many([1, 2, 1])
    assert memory.snapshot().pages_scanned == 0
    assert len(memory.scan_many([])) == 0  # nothing due: an empty batch
    batch = memory.scan_many([2, 0])  # unsorted but unique is fine
    assert batch.regions.tolist() == [2, 0]
    assert [result.region for result in batch] == [2, 0]


def test_stochastic_occupancy_reproducible_with_seed():
    def run(seed):
        kernel = Kernel()
        rng = RngStreams(seed).get("occupancy")
        memory = make_memory(kernel, n_regions=1, rng=rng)
        memory.set_rates([256.0])
        kernel.run(until=1 * SEC)
        return memory.scan(0).set_bits

    assert run(5) == run(5)
