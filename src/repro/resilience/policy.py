"""Retry policy: attempts, deadlines, and deterministic backoff.

A :class:`RetryPolicy` is plain data shared by every supervised
dispatch path (fleet chunks, reproduce-all units, sweep cells).  Two
properties matter for the repo's reproducibility story:

* **Determinism.**  Backoff delays carry *seeded* jitter: the jitter
  for ``(unit_id, attempt)`` is a pure function of :data:`JITTER_SEED`
  and those coordinates, never of wall clock or a global RNG.  Retries
  therefore cannot perturb any result bit (units are pure in their
  arguments), and the retry *schedule* itself replays identically
  run-to-run — a warm re-run under the same faults waits the same
  milliseconds in the same places.

* **Bounded attempts.**  A unit is tried at most ``max_retries + 1``
  times; after that it is quarantined as *poison* and the run degrades
  to an explicit hole instead of dying (DESIGN.md §11).

The backoff shape is a module constant, not a field: nothing that runs
varies it (a test that needs faster retries patches the constants).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

__all__ = ["RetryPolicy"]

#: Delay before the first retry; doubles per subsequent retry.
BACKOFF_BASE_S = 0.05
#: Upper bound on any single backoff delay.
BACKOFF_CAP_S = 2.0
#: Maximum fractional jitter added to each delay (up to +25%).
JITTER_FRAC = 0.25
#: Seed of the deterministic jitter hash.
JITTER_SEED = 0


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervised dispatcher treats a failing or stuck unit.

    Attributes:
        max_retries: re-dispatches after the first failure; a unit that
            fails ``max_retries + 1`` times total is quarantined.
        unit_timeout_s: heartbeat-checked per-attempt deadline.  A unit
            still running past it is presumed hung; its worker is
            killed and replaced, and the attempt counts as a failure.
            ``None`` disables the deadline (worker *crashes* are still
            detected immediately via process liveness).
    """

    max_retries: int = 2
    unit_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.unit_timeout_s is not None and self.unit_timeout_s <= 0:
            raise ValueError("unit_timeout_s must be positive")

    @property
    def max_attempts(self) -> int:
        """Total tries per unit (first run + retries)."""
        return self.max_retries + 1

    def jitter(self, unit_id: str, attempt: int) -> float:
        """Deterministic jitter fraction in ``[0, JITTER_FRAC)``.

        Pure in ``(JITTER_SEED, unit_id, attempt)`` — hashing, not a
        stateful RNG — so concurrent units draw independent-looking
        jitter without sharing any mutable state, and a re-run replays
        the exact same schedule.
        """
        digest = hashlib.sha256(
            f"{JITTER_SEED}:{unit_id}:{attempt}".encode("utf-8")
        ).digest()
        unit_fraction = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return JITTER_FRAC * unit_fraction

    def backoff_delay(self, unit_id: str, attempt: int) -> float:
        """Seconds to wait before re-dispatching attempt ``attempt + 1``.

        ``attempt`` is the zero-based attempt that just failed:
        exponential in the attempt number, capped, plus seeded jitter.
        """
        base = min(BACKOFF_BASE_S * (2.0 ** attempt), BACKOFF_CAP_S)
        return base * (1.0 + self.jitter(unit_id, attempt))
