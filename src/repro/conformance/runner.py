"""Differential replay: two implementations, one seed, first divergence.

:func:`run_differential` runs the same scenario on two registered
implementations and compares their event traces:

1. Both sides run under a :class:`~repro.sim.trace.CheckpointDigester`.
   Checkpoint digests are cumulative, so the first disagreeing
   checkpoint bounds the divergence to one cadence-sized window (and
   agreeing checkpoints prove bit-identity up to that point).
2. Both sides re-run under a :class:`~repro.sim.trace.WindowRecorder`
   over just that window (runs are pure functions of ``(spec, impl)``,
   so the replay is exact), and the bisector binary-searches the
   captured payloads to the first diverging event index.
3. The report decodes both sides' payloads at that index — event kind,
   sim-time, responsible agent/source, full details — which is the
   debugging payoff: "backend B first differs from backend A at event
   41 273, t=3 071 000 µs, agent node0.overclock, PREDICTION_SENT
   {...} vs {...}".

Traces can also agree completely while terminal states differ (an
untraced counter); the report carries the terminal-state diff for that
case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.conformance import registry
from repro.conformance.bisector import first_divergence
from repro.conformance.scenarios import get_scenario
from repro.conformance.vectors import canonical_state
from repro.core.events import decode_event
from repro.sim.trace import CheckpointDigester, WindowRecorder

__all__ = ["DivergenceReport", "run_differential"]


@dataclass
class DivergenceReport:
    """Outcome of one differential replay."""

    scenario: str
    impl_a: str
    impl_b: str
    equivalent: bool
    n_events: Dict[str, int]
    #: Global index of the first diverging event; ``None`` when the
    #: traces are identical (terminal state may still differ).
    first_diverging_index: Optional[int] = None
    #: Decoded payloads at that index (``None`` on the side whose trace
    #: ended before it).
    event_a: Optional[Dict[str, Any]] = None
    event_b: Optional[Dict[str, Any]] = None
    terminal_equal: bool = True
    terminal_diff: Dict[str, List[Any]] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"== conformance diff: {self.scenario} — "
            f"{self.impl_a} vs {self.impl_b} =="
        ]
        if self.equivalent:
            lines.append(
                f"  equivalent: {self.n_events[self.impl_a]} events, "
                "identical trace and terminal state"
            )
            return "\n".join(lines)
        if self.first_diverging_index is not None:
            lines.append(
                f"  first diverging event: index "
                f"{self.first_diverging_index} "
                f"({self.impl_a}: {self.n_events[self.impl_a]} events, "
                f"{self.impl_b}: {self.n_events[self.impl_b]} events)"
            )
            for name, event in (
                (self.impl_a, self.event_a), (self.impl_b, self.event_b),
            ):
                if event is None:
                    lines.append(f"    {name}: <trace ended>")
                else:
                    lines.append(
                        f"    {name}: t={event['time_us']}us "
                        f"{event['agent']} {event['kind']} "
                        f"{event['details']}"
                    )
        if not self.terminal_equal:
            lines.append("  terminal state differences:")
            for key, (value_a, value_b) in sorted(
                self.terminal_diff.items()
            ):
                lines.append(
                    f"    {key}: {self.impl_a}={value_a!r} "
                    f"{self.impl_b}={value_b!r}"
                )
        return "\n".join(lines)


def _diff_states(
    state_a: Dict[str, Any], state_b: Dict[str, Any]
) -> Dict[str, List[Any]]:
    diff: Dict[str, List[Any]] = {}
    for key in sorted(set(state_a) | set(state_b)):
        value_a = state_a.get(key, "<missing>")
        value_b = state_b.get(key, "<missing>")
        if value_a != value_b:
            diff[key] = [value_a, value_b]
    return diff


def run_differential(
    impl_a_name: str,
    impl_b_name: str,
    scenario_name: str,
) -> DivergenceReport:
    """Replay one scenario on two impls and localize any divergence."""
    spec = get_scenario(scenario_name)
    impl_a = registry.get(impl_a_name)
    impl_b = registry.get(impl_b_name)
    for impl in (impl_a, impl_b):
        if impl.family != spec.family:
            raise ValueError(
                f"impl {impl.name!r} (family {impl.family!r}) cannot "
                f"run scenario {scenario_name!r} "
                f"(family {spec.family!r})"
            )
    cadence = spec.cadence

    digester_a = CheckpointDigester(cadence)
    digester_b = CheckpointDigester(cadence)
    state_a = canonical_state(impl_a.run(spec, digester_a))
    state_b = canonical_state(impl_b.run(spec, digester_b))
    n_events = {
        impl_a_name: digester_a.n_events,
        impl_b_name: digester_b.n_events,
    }
    terminal_diff = _diff_states(state_a, state_b)

    # First disagreeing checkpoint bounds the divergent window.
    window: Optional[tuple] = None
    pairs = zip(digester_a.checkpoints, digester_b.checkpoints)
    for checkpoint_a, checkpoint_b in pairs:
        if checkpoint_a != checkpoint_b:
            window = (checkpoint_a.index - cadence, checkpoint_a.index)
            break
    if window is None:
        terminal_a = digester_a.terminal()
        terminal_b = digester_b.terminal()
        if (terminal_a.index, terminal_a.digest) != (
            terminal_b.index, terminal_b.digest
        ):
            # Tail window past the last agreeing checkpoint (covers
            # unequal lengths and sub-cadence tails).
            agreed = min(
                len(digester_a.checkpoints), len(digester_b.checkpoints)
            ) * cadence
            window = (agreed, max(terminal_a.index, terminal_b.index))

    if window is None:
        equivalent = not terminal_diff
        return DivergenceReport(
            scenario=scenario_name,
            impl_a=impl_a_name,
            impl_b=impl_b_name,
            equivalent=equivalent,
            n_events=n_events,
            terminal_equal=not terminal_diff,
            terminal_diff=terminal_diff,
        )

    # Re-run both sides capturing only the flagged window, then bisect.
    recorder_a = WindowRecorder(window[0], window[1])
    recorder_b = WindowRecorder(window[0], window[1])
    impl_a.run(spec, recorder_a)
    impl_b.run(spec, recorder_b)
    payloads_a = recorder_a.payloads()
    payloads_b = recorder_b.payloads()
    offset = first_divergence(payloads_a, payloads_b)
    if offset is None:
        # The digests flagged this window, so a replay that no longer
        # diverges means the impl is not deterministic — say so rather
        # than reporting a bogus index.
        raise RuntimeError(
            f"scenario {scenario_name!r} diverged at checkpoint level "
            f"but replayed identically in window {window}: "
            f"implementation {impl_a_name!r} or {impl_b_name!r} is "
            "non-deterministic"
        )
    index = window[0] + offset
    event_a = (
        decode_event(payloads_a[offset]) if offset < len(payloads_a) else None
    )
    event_b = (
        decode_event(payloads_b[offset]) if offset < len(payloads_b) else None
    )
    return DivergenceReport(
        scenario=scenario_name,
        impl_a=impl_a_name,
        impl_b=impl_b_name,
        equivalent=False,
        n_events=n_events,
        first_diverging_index=index,
        event_a=event_a,
        event_b=event_b,
        terminal_equal=not terminal_diff,
        terminal_diff=terminal_diff,
    )
