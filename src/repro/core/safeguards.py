"""Safeguard configuration and state tracking.

SOL treats its safeguards as **mandatory**: agent developers must
implement all of them (§4.1).  :class:`SafeguardPolicy` exists solely so
the evaluation harness can reproduce the paper's *unguarded* baselines
(Figures 2–6, 8 all compare "with safeguard" to "without") and the
blocking-actuator ablation (Figure 4).  Production deployments use the
default: everything enabled.

:class:`SafeguardState` is the one owner of a safeguard's history: each
verdict goes through :meth:`SafeguardState.update`, which opens or
closes an activation window and records the transition event, so the
experiments' trip counts, time-in-mitigation and first engagements are
queries over the windows it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.events import EventKind, EventLog

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
    """One safeguard's activation windows, recorded as they happen.

    Args:
        log: the agent's event log (clock and transition events).
        name: the ``safeguard`` detail on its transition events.
    """

    def __init__(self, log: EventLog, name: str) -> None:
        self.log = log
        self.name = name
        #: (start_us, end_us) in time order; end is None while open
        self.windows: List[Tuple[int, Optional[int]]] = []

    @property
    def active(self) -> bool:
        """Whether the safeguard is currently triggered."""
        return bool(self.windows) and self.windows[-1][1] is None

    def update(self, healthy: bool) -> None:
        """Open (unhealthy) or close (healthy) a window and record the
        transition; a verdict that repeats the current state is a no-op."""
        if self.active is not bool(healthy):
            return
        now = self.log.kernel.now
        if healthy:
            self.windows[-1] = (self.windows[-1][0], now)
            self.log.record(EventKind.SAFEGUARD_CLEARED, safeguard=self.name)
        else:
            self.windows.append((now, None))
            self.log.record(
                EventKind.SAFEGUARD_TRIGGERED, safeguard=self.name
            )

    @property
    def trigger_count(self) -> int:
        """Times the safeguard engaged."""
        return len(self.windows)

    def active_duration_us(self) -> int:
        """Total time spent triggered, an open window up to now."""
        now = self.log.kernel.now
        return sum((now if end is None else end) - start
                   for start, end in self.windows)

    def first_triggered_at_us_since(self, start_us: int) -> Optional[int]:
        """First engagement at or after ``start_us``, or ``None``
        (``start_us = 0``: the first engagement ever).

        The safety campaigns anchor time-to-fallback at the fault
        onset; safeguards that tripped during pre-fault warmup must not
        satisfy the query.
        """
        return next((s for s, _ in self.windows if s >= start_us), None)
