"""SmartMemory agent tests: classification, bandits, safeguards."""

import numpy as np
import pytest

from repro.agents.memory import (
    MemoryConfig,
    MemoryPlan,
    SmartMemoryAgent,
    StaticScanController,
    classify_by_coverage,
    infer_access_rate,
    infer_access_rates,
    observable_rate,
    observable_rates,
)
from repro.core import SafeguardPolicy
from repro.node.memory import Tier, TieredMemory
from repro.sim import Kernel, RngStreams
from repro.sim.units import SEC
from repro.workloads.traces import SPECJBB_MEM, ZipfMemoryTrace


def setup(seed=0, n_regions=64, profile=SPECJBB_MEM):
    kernel = Kernel()
    streams = RngStreams(seed)
    memory = TieredMemory(
        kernel, n_regions=n_regions, pages_per_region=512,
        rng=streams.get("mem"),
    )
    trace = ZipfMemoryTrace(kernel, memory, streams.get("trace"), profile)
    trace.start()
    return kernel, streams, memory, trace


# -- classification math ------------------------------------------------------


def test_classify_by_coverage_minimal_hot_set():
    counts = np.array([100.0, 50.0, 30.0, 10.0, 5.0, 5.0])
    hot, warm = classify_by_coverage(
        counts, np.arange(6), coverage=0.8
    )
    # 100+50+30 = 180 of 200 -> 90% >= 80%; 100+50 = 75% not enough
    assert set(hot.tolist()) == {0, 1, 2}
    assert set(warm.tolist()) == {3, 4, 5}


def test_classify_all_zero_counts_keeps_everything_hot():
    hot, warm = classify_by_coverage(
        np.zeros(4), np.arange(4), coverage=0.8
    )
    assert hot.size == 4
    assert warm.size == 0


def test_classify_respects_candidate_subset():
    counts = np.array([100.0, 90.0, 1.0, 1.0])
    hot, warm = classify_by_coverage(
        counts, np.array([2, 3]), coverage=0.5
    )
    assert set(hot.tolist()) <= {2, 3}


def test_occupancy_inversion_round_trips():
    for rate in [50.0, 500.0, 5000.0]:
        for period in [300_000, 2_400_000]:
            observed = observable_rate(rate, period, 512)
            bits_per_scan = observed * period / 1e6
            recovered = infer_access_rate(bits_per_scan, period, 512)
            if bits_per_scan < 0.98 * 512:
                assert recovered == pytest.approx(rate, rel=1e-6)


def test_inversion_saturates_to_lower_bound():
    recovered = infer_access_rate(512.0, 9_600_000, 512)
    assert recovered < 50_000  # clamped: true rate could be anything higher


def _seed_observable_rate(access_rate, period_us, pages):
    """The seed's scalar formula, kept as the reference."""
    if access_rate <= 0 or period_us <= 0:
        return 0.0
    period_s = period_us / 1e6
    touched = pages * (1.0 - np.exp(-access_rate * period_s / pages))
    return float(touched / period_s)


def _seed_infer_access_rate(bits_per_scan, period_us, pages):
    """The seed's scalar formula, kept as the reference."""
    if bits_per_scan <= 0 or period_us <= 0:
        return 0.0
    period_s = period_us / 1e6
    fraction = min(bits_per_scan / pages, 1.0 - 1e-6)
    return float(-pages * np.log(1.0 - fraction) / period_s)


def test_array_occupancy_functions_equal_the_seed_scalars_bitwise():
    rng = np.random.default_rng(3)
    rates = rng.uniform(0.0, 50_000.0, 300)
    rates[::7] = 0.0
    bits = rng.uniform(0.0, 512.0, 300)
    bits[::5] = 0.0
    bits[1::11] = 512.0  # saturated: clamped just below all-bits-set
    periods = rng.choice([300_000, 1_200_000, 9_600_000], 300)
    for period in (300_000, 9_600_000, 0, periods):  # one period, or per region
        per_region = np.broadcast_to(period, rates.shape).tolist()
        observed = observable_rates(rates, period, 512)
        inferred = infer_access_rates(bits, period, 512)
        for i in range(rates.size):
            args = (per_region[i], 512)
            assert observed[i] == _seed_observable_rate(rates[i], *args)
            assert inferred[i] == _seed_infer_access_rate(bits[i], *args)
            assert observable_rate(rates[i], *args) == observed[i]
            assert infer_access_rate(bits[i], *args) == inferred[i]


def test_memory_plan_rejects_overlaps():
    with pytest.raises(ValueError):
        MemoryPlan(hot=np.array([1, 2]), warm=np.array([2, 3]))


# -- agent behavior ----------------------------------------------------------------


def test_agent_offloads_cold_tail_and_meets_slo():
    kernel, streams, memory, _trace = setup()
    SmartMemoryAgent(kernel, memory, streams.get("agent")).start()
    kernel.run(until=300 * SEC)
    snap = memory.snapshot()
    assert memory.n_local < memory.n_regions  # something was offloaded
    assert snap.remote_fraction() < 0.30


def test_agent_scans_less_than_max_frequency_baseline():
    kernel, streams, memory, _trace = setup(seed=1)
    SmartMemoryAgent(kernel, memory, streams.get("agent")).start()
    kernel.run(until=300 * SEC)
    smart_resets = memory.snapshot().bit_resets

    kernel2, streams2, memory2, _trace2 = setup(seed=1)
    StaticScanController(
        kernel2, memory2, MemoryConfig().scan_periods_us[0]
    ).start()
    kernel2.run(until=300 * SEC)
    max_resets = memory2.snapshot().bit_resets
    assert smart_resets < max_resets


def test_bandits_move_cold_regions_to_slow_arms():
    kernel, streams, memory, _trace = setup(seed=2)
    agent = SmartMemoryAgent(kernel, memory, streams.get("agent")).start()
    kernel.run(until=400 * SEC)
    periods = agent.model.chosen_periods_us()
    rates = memory.rates
    active = rates > 0
    quiet = ~active & ~np.isin(
        np.arange(memory.n_regions), agent.model.cold_regions
    )
    hot_idx = np.argsort(rates)[-5:]
    # hottest regions scan much faster than the overall mix
    assert periods[hot_idx].mean() < np.asarray(periods).mean()


def _seed_rewards(model):
    """The per-region ``_reward_arms`` branch the array form replaced."""
    config, pages = model.config, model.memory.pages_per_region
    out = []
    for region in range(model.memory.n_regions):
        n_scans = model._scan_count[region]
        if n_scans == 0 or model._cold[region]:
            continue
        arm = 0 if model._truth_mask[region] else int(model._arm[region])
        saturation_rate = model._saturated[region] / n_scans
        occupancy = model._bits_total[region] / n_scans / pages
        if saturation_rate >= config.saturation_undersampled:
            success = arm == 0
        elif occupancy < config.well_sampled_low and arm < config.n_arms - 1:
            success = False
        else:
            success = True
        out.append((region, arm, success))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_array_rewards_equal_the_per_region_branch(seed):
    """Every reward branch — undersampled at and above arm 0, sparse on
    the slowest arm and below it, well sampled — on random epoch
    statistics, with cold, unscanned and ground-truth regions mixed in."""
    kernel, streams, memory, _trace = setup(seed=seed)
    model = SmartMemoryAgent(kernel, memory, streams.get("agent")).model
    rng = np.random.default_rng(seed)
    n = memory.n_regions
    model._scan_count[:] = rng.integers(0, 4, n)
    model._saturated[:] = np.minimum(
        model._scan_count, rng.integers(0, 4, n)
    )
    model._bits_total[:] = rng.uniform(0, 2 * 512, n) * model._scan_count
    model._arm[:] = rng.integers(0, model.config.n_arms, n)
    model._truth_mask[:] = rng.random(n) < 0.2
    model._cold[:] = rng.random(n) < 0.2
    expected = _seed_rewards(model)
    alpha, beta = model.bandits.alpha.copy(), model.bandits.beta.copy()
    for region, arm, success in expected:
        (alpha if success else beta)[region, arm] += 1.0
    model._reward_arms()
    assert np.array_equal(model.bandits.alpha, alpha)
    assert np.array_equal(model.bandits.beta, beta)
    assert {s for _r, _a, s in expected} == {True, False}


def test_cold_regions_detected_and_excluded():
    kernel, streams, memory, _trace = setup(seed=3)
    agent = SmartMemoryAgent(kernel, memory, streams.get("agent")).start()
    kernel.run(until=400 * SEC)  # > 3 min cold timeout
    cold = agent.model.cold_regions
    rates = memory.rates
    assert cold.size > 0
    assert np.all(rates[cold] == 0.0)


def test_scan_errors_fail_validation_sample():
    kernel, streams, memory, _trace = setup(seed=4)
    memory.set_scan_fault_probability(1.0)
    agent = SmartMemoryAgent(kernel, memory, streams.get("agent")).start()
    kernel.run(until=50 * SEC)
    stats = agent.runtime.stats()
    assert stats["validation_failures"] > 0


def test_actuator_safeguard_migrates_hot_regions_back():
    kernel, streams, memory, _trace = setup(seed=5)
    agent = SmartMemoryAgent(kernel, memory, streams.get("agent")).start()
    kernel.run(until=80 * SEC)  # past the first plan application
    # adversarially push the hottest regions remote
    hottest = np.argsort(memory.rates)[-10:]
    memory.migrate_many(hottest.tolist(), Tier.REMOTE)
    kernel.run(until=120 * SEC)
    stats = agent.runtime.stats()
    assert stats["actuator_safeguard_triggers"] >= 1
    assert stats["mitigations"] >= 1
    # the hottest regions are back in tier 1
    back_local = sum(memory.tier_of(int(r)) is Tier.LOCAL for r in hottest)
    assert back_local >= 8


def test_default_plan_is_conservative():
    kernel, streams, memory, _trace = setup(seed=6)
    agent = SmartMemoryAgent(kernel, memory, streams.get("agent")).start()
    kernel.run(until=80 * SEC)
    default = agent.model.default_predict()
    plan = default.value
    candidates = plan.hot.size + plan.warm.size
    # only the coldest ~5% of candidate batches are offload candidates
    assert plan.warm.size <= max(1, int(0.06 * candidates))
    assert default.is_default


def test_terminate_restores_all_regions_local():
    kernel, streams, memory, _trace = setup(seed=7)
    agent = SmartMemoryAgent(kernel, memory, streams.get("agent")).start()
    kernel.run(until=200 * SEC)
    agent.terminate()
    assert memory.n_local == memory.n_regions
    assert not agent.runtime.running


def test_config_validation():
    with pytest.raises(ValueError):
        MemoryConfig(scan_periods_us=(300_000,))
    with pytest.raises(ValueError):
        MemoryConfig(scan_periods_us=(300_000, 300_000))
    with pytest.raises(ValueError):
        MemoryConfig(hot_coverage=0.0)
    with pytest.raises(ValueError):
        MemoryConfig(truth_fraction=1.0)
    config = MemoryConfig()
    assert config.epoch_us == 4 * config.scan_periods_us[-1]
