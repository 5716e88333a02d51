"""Safeguard configuration and state tracking.

SOL treats its safeguards as **mandatory**: agent developers must
implement all of them (§4.1).  :class:`SafeguardPolicy` exists solely so
the evaluation harness can reproduce the paper's *unguarded* baselines
(Figures 2–6, 8 all compare "with safeguard" to "without") and the
blocking-actuator ablation (Figure 4).  Production deployments use the
default: everything enabled.

:class:`SafeguardState` tracks each safeguard's trigger history so the
experiments can report how long an agent spent mitigating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.sim.kernel import Kernel

__all__ = ["SafeguardPolicy", "SafeguardState"]


@dataclass(frozen=True)
class SafeguardPolicy:
    """Which safety mechanisms are active (ablation switches).

    Attributes:
        validate_data: run ``Model.validate_data`` and discard failures.
        assess_model: run ``Model.assess_model`` and intercept
            predictions while it fails.
        assess_actuator: run the end-to-end ``assess_performance`` /
            ``mitigate`` watchdog.
        enforce_expiry: drop expired predictions instead of acting on
            them.
        non_blocking_actuator: bound the Actuator's queue wait by
            ``Schedule.max_actuation_delay_us``.  ``False`` reproduces
            the paper's *blocking* strawman that waits indefinitely
            (Figure 4 / Figure 6 right).
    """

    validate_data: bool = True
    assess_model: bool = True
    assess_actuator: bool = True
    enforce_expiry: bool = True
    non_blocking_actuator: bool = True

    @classmethod
    def all_enabled(cls) -> "SafeguardPolicy":
        """The production configuration."""
        return cls()

    @classmethod
    def none_enabled(cls) -> "SafeguardPolicy":
        """The fully unguarded baseline used in the paper's comparisons."""
        return cls(
            validate_data=False,
            assess_model=False,
            assess_actuator=False,
            enforce_expiry=False,
            non_blocking_actuator=True,
        )


class SafeguardState:
    """Trigger/clear bookkeeping for one safeguard.

    Records transition times so experiments can compute time-in-
    mitigation, and exposes :attr:`active` for the runtime's halt logic.
    """

    def __init__(self, kernel: Kernel, name: str) -> None:
        self.kernel = kernel
        self.name = name
        self._active = False
        self._activated_at: Optional[int] = None
        #: closed (start_us, end_us) activation windows
        self.windows: List[Tuple[int, int]] = []
        self.trigger_count = 0

    @property
    def active(self) -> bool:
        """Whether the safeguard is currently triggered."""
        return self._active

    def first_triggered_at_us_since(self, start_us: int) -> Optional[int]:
        """First engagement at or after ``start_us``, or ``None``
        (``start_us = 0``: the first engagement ever).

        The safety campaigns anchor time-to-fallback at the fault
        onset; safeguards that tripped during pre-fault warmup must not
        satisfy the query.  Closed windows are recorded
        chronologically, and an open window always starts after every
        closed one, so a linear scan suffices (trigger counts are tiny).
        """
        for window_start, _end in self.windows:
            if window_start >= start_us:
                return window_start
        if self._activated_at is not None and self._activated_at >= start_us:
            return self._activated_at
        return None

    def trigger(self) -> bool:
        """Mark unsafe; returns ``True`` on a fresh transition."""
        if self._active:
            return False
        self._active = True
        self._activated_at = self.kernel.now
        self.trigger_count += 1
        return True

    def clear(self) -> bool:
        """Mark safe again; returns ``True`` on a fresh transition."""
        if not self._active:
            return False
        self._active = False
        assert self._activated_at is not None
        self.windows.append((self._activated_at, self.kernel.now))
        self._activated_at = None
        return True

    def active_duration_us(self) -> int:
        """Total time spent triggered (including an open window)."""
        total = sum(end - start for start, end in self.windows)
        if self._active and self._activated_at is not None:
            total += self.kernel.now - self._activated_at
        return total
