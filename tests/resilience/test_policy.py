"""Retry policy: deterministic backoff, bounded attempts, validation."""

import pytest

from repro.resilience import RetryPolicy
from repro.resilience import policy as policy_module


def test_backoff_is_deterministic_across_instances():
    one = RetryPolicy()
    two = RetryPolicy(max_retries=5)
    for attempt in range(5):
        assert one.backoff_delay("u", attempt) == two.backoff_delay(
            "u", attempt
        )


def test_backoff_grows_exponentially_then_caps(monkeypatch):
    monkeypatch.setattr(policy_module, "BACKOFF_BASE_S", 0.1)
    monkeypatch.setattr(policy_module, "BACKOFF_CAP_S", 0.4)
    monkeypatch.setattr(policy_module, "JITTER_FRAC", 0.0)
    policy = RetryPolicy()
    assert policy.backoff_delay("u", 0) == pytest.approx(0.1)
    assert policy.backoff_delay("u", 1) == pytest.approx(0.2)
    assert policy.backoff_delay("u", 2) == pytest.approx(0.4)
    assert policy.backoff_delay("u", 5) == pytest.approx(0.4)  # capped


def test_jitter_is_seeded_and_bounded():
    policy = RetryPolicy()
    draws = {
        (unit, attempt): policy.jitter(unit, attempt)
        for unit in ("a", "b", "c")
        for attempt in range(3)
    }
    assert all(
        0.0 <= value < policy_module.JITTER_FRAC for value in draws.values()
    )
    assert len(set(draws.values())) > 1  # units draw independent jitter
    delay = policy.backoff_delay("a", 0)
    assert delay == pytest.approx(
        policy_module.BACKOFF_BASE_S * (1.0 + draws[("a", 0)])
    )


def test_max_attempts_counts_the_first_run():
    assert RetryPolicy(max_retries=0).max_attempts == 1
    assert RetryPolicy(max_retries=2).max_attempts == 3


def test_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(unit_timeout_s=0)
