"""Predictions with explicit expiration times.

"The output of a successful learning epoch is a ``Prediction`` object
that contains the predicted value and an explicit expiration time for
the prediction" (§4.1).  Expiry is the mechanism that makes scheduling
delays safe: a prediction computed before a stall is *provably* not acted
on after the workload may have moved on.  Even default predictions
expire — "they are still reliant on fresh telemetry and can become
stale".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, TypeVar

from repro.sim.kernel import Kernel

__all__ = ["Prediction"]

P = TypeVar("P")


@dataclass(frozen=True)
class Prediction(Generic[P]):
    """A model output with provenance and a freshness deadline.

    Attributes:
        value: the agent-specific predicted value (e.g. a target CPU
            frequency, a core count, a region classification).
        produced_at_us: when the model emitted it.
        expires_at_us: after this instant the prediction must not be
            acted on; the runtime passes ``None`` to the Actuator instead.
        is_default: whether this came from ``DefaultPredict`` (a safe
            fallback heuristic) rather than the learned model.
    """

    value: P
    produced_at_us: int
    expires_at_us: int
    is_default: bool = False

    def __post_init__(self) -> None:
        if self.expires_at_us < self.produced_at_us:
            raise ValueError(
                "prediction expires before it is produced "
                f"({self.expires_at_us} < {self.produced_at_us})"
            )

    def is_expired(self, now_us: int) -> bool:
        """Whether the prediction is stale at ``now_us``."""
        return now_us > self.expires_at_us

    @property
    def ttl_us(self) -> int:
        """The prediction's lifetime at production time."""
        return self.expires_at_us - self.produced_at_us

    @classmethod
    def fresh(
        cls,
        kernel: Kernel,
        value: P,
        ttl_us: int,
        is_default: bool = False,
    ) -> "Prediction[P]":
        """Convenience constructor: produced now, expiring ``ttl_us`` later."""
        if ttl_us < 0:
            raise ValueError("ttl must be non-negative")
        now = kernel.now
        return cls(
            value=value,
            produced_at_us=now,
            expires_at_us=now + ttl_us,
            is_default=is_default,
        )
