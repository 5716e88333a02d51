"""Tests for fault injectors: model breaker and delay injector."""

import numpy as np
import pytest

from repro.node.faults import DelayInjector, ModelBreaker, bad_usage_injector
from repro.sim.units import SEC


def test_model_breaker_passthrough_when_disarmed():
    breaker = ModelBreaker(broken_value=99)
    assert breaker.apply(5) == 5
    assert breaker.activations == 0


def test_model_breaker_overrides_when_armed():
    breaker = ModelBreaker(broken_value=99)
    breaker.arm()
    assert breaker.apply(5) == 99
    assert breaker.apply(7) == 99
    assert breaker.activations == 2
    breaker.disarm()
    assert breaker.apply(5) == 5


def test_delay_injector_consumes_windows_in_order():
    injector = DelayInjector()
    injector.add_window(at_us=5 * SEC, duration_us=2 * SEC)
    injector.add_window(at_us=1 * SEC, duration_us=1 * SEC)
    assert injector.pending_delay(0) == 0
    assert injector.pending_delay(1 * SEC) == 1 * SEC
    assert injector.pending_delay(1 * SEC) == 0  # consumed
    assert injector.pending_delay(10 * SEC) == 2 * SEC


def test_delay_injector_trigger_now_is_one_shot():
    injector = DelayInjector()
    injector.trigger_now(30 * SEC)
    assert injector.pending_delay(42) == 30 * SEC
    assert injector.pending_delay(43) == 0
    assert injector.triggered == [(42, 30 * SEC)]


def test_delay_injector_validation():
    injector = DelayInjector()
    with pytest.raises(ValueError):
        injector.add_window(at_us=-1, duration_us=1)
    with pytest.raises(ValueError):
        injector.add_window(at_us=0, duration_us=0)
    with pytest.raises(ValueError):
        injector.trigger_now(0)


def test_bad_usage_injector_zeroes_windows():
    rng = np.random.default_rng(0)
    inject = bad_usage_injector(rng, probability=1.0, scale=0.0)
    samples = np.ones(10) * 4.0
    assert inject(samples).sum() == 0.0


def test_bad_usage_injector_probability_zero_is_identity():
    rng = np.random.default_rng(0)
    inject = bad_usage_injector(rng, probability=0.0)
    samples = np.ones(5)
    assert np.array_equal(inject(samples), samples)


def test_stale_read_injector_serves_last_genuine_value():
    from repro.node.faults import StaleReadInjector

    rng = np.random.default_rng(1)
    inject = StaleReadInjector(rng, probability=1.0)
    first = np.array([1.0, 2.0])
    assert inject(first) is first  # nothing stale to serve yet
    second = np.array([3.0, 4.0])
    served = inject(second)
    assert np.array_equal(served, first)
    assert inject.stale_reads == 1
    # The stale snapshot is a defensive copy: mutating the original
    # buffer (reuse on the hot path) cannot corrupt later stale reads.
    first[:] = -1.0
    assert np.array_equal(inject(second), np.array([1.0, 2.0]))


def test_stale_read_injector_probability_zero_is_identity():
    from repro.node.faults import StaleReadInjector

    inject = StaleReadInjector(np.random.default_rng(0), probability=0.0)
    a, b = object(), object()
    assert inject(a) is a
    assert inject(b) is b
    assert inject.stale_reads == 0


def test_stale_read_injector_validates_probability():
    from repro.node.faults import StaleReadInjector

    with pytest.raises(ValueError):
        StaleReadInjector(np.random.default_rng(0), probability=1.5)


def _scan_batch(n):
    from repro.node.memory import ScanBatch

    return ScanBatch(
        regions=np.arange(n),
        set_bits=np.full(n, 5),
        elapsed_us=np.full(n, 100),
        saturated=np.zeros(n, dtype=bool),
        error=np.zeros(n, dtype=bool),
        pages=16,
    )


def test_dropped_batch_injector_errors_whole_batches():
    from repro.node.faults import dropped_batch_injector

    batch = _scan_batch(3)
    inject = dropped_batch_injector(np.random.default_rng(0), 1.0)
    dropped = inject(batch)
    assert len(dropped) == 3
    assert dropped.error.all()
    assert all(result.error for result in dropped)
    assert [r.region for r in dropped] == [0, 1, 2]
    assert not batch.error.any()  # original untouched
    empty = _scan_batch(0)
    assert inject(empty) is empty  # empty batches pass through


def test_dropped_batch_injector_draws_only_for_nonempty_batches():
    from repro.node.faults import dropped_batch_injector

    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    inject = dropped_batch_injector(rng, 0.5)
    inject(_scan_batch(0))
    assert rng.random() == twin.random()  # empty batch drew nothing
    inject(_scan_batch(2))
    twin.random()
    assert rng.random() == twin.random()  # exactly one draw per batch


def test_dropped_batch_injector_probability_zero_is_identity():
    from repro.node.faults import dropped_batch_injector

    batch = _scan_batch(1)
    inject = dropped_batch_injector(np.random.default_rng(0), 0.0)
    assert inject(batch) is batch
