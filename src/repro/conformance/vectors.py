"""Known-answer vectors: committed digests a run must reproduce exactly.

One vector file (``<scenario>.kav.json``) records, for one scenario on
one implementation:

* the event-trace digest at every checkpointed event index (cadence
  events apart; :class:`~repro.sim.trace.CheckpointDigester`),
* the terminal checkpoint (total event count, final event time, whole-
  trace digest), and
* the canonicalized terminal state (counters, safeguard trips, perf —
  every leaf through :func:`~repro.core.events.canonical_scalar`, the
  same canonicalization the pinned experiment digests use).

``repro conformance record`` writes vectors; ``repro conformance
check`` re-runs the scenario and compares.  A mismatch names the first
disagreeing checkpoint, which bounds the divergence to one cadence
window — the differential runner then bisects inside such a window when
two live implementations are available.

The corpus directory also holds ``golden_digests.json``: the pinned
fleet-aggregate and experiment digests (:mod:`repro.conformance.corpus`).

Schema changes bump :data:`SCHEMA_VERSION`; loading a vector written by
any other schema fails with :class:`VectorSchemaError` telling the user
to re-record, never with a silent pass or an opaque ``KeyError``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.conformance import registry
from repro.conformance.scenarios import ScenarioSpec, get_scenario
from repro.core.events import canonical_scalar
from repro.sim.trace import CheckpointDigester

__all__ = [
    "SCHEMA_VERSION",
    "KnownAnswerVector",
    "VectorSchemaError",
    "canonical_state",
    "check_vector",
    "load_vector",
    "read_json",
    "record_vector",
    "save_vector",
    "vector_filename",
]

SCHEMA_VERSION = 1

_REQUIRED_KEYS = (
    "schema", "name", "impl", "cadence", "scenario", "checkpoints",
    "terminal", "state",
)


class VectorSchemaError(ValueError):
    """A vector file this build cannot (or must not) interpret."""


def canonical_state(value: Any) -> Any:
    """Canonicalize a terminal-state tree: every leaf via
    :func:`~repro.core.events.canonical_scalar`, containers preserved.

    Leaves become canonical strings, so two states compare equal iff
    they are bit-identical under the repo's one canonicalization — and
    the result is JSON-serializable regardless of NaN/numpy leaves.
    """
    if isinstance(value, dict):
        return {str(k): canonical_state(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical_state(v) for v in value]
    return canonical_scalar(value)


@dataclass
class KnownAnswerVector:
    """One scenario's recorded answer on one implementation."""

    name: str
    impl: str
    cadence: int
    scenario: Dict[str, Any]
    checkpoints: List[List]          # [index, time_us, digest] rows
    terminal: List                   # [index, time_us, digest]
    state: Dict[str, Any]
    schema: int = SCHEMA_VERSION

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "name": self.name,
            "impl": self.impl,
            "cadence": self.cadence,
            "scenario": self.scenario,
            "checkpoints": self.checkpoints,
            "terminal": self.terminal,
            "state": self.state,
        }


def vector_filename(scenario_name: str) -> str:
    return f"{scenario_name}.kav.json"


def record_vector(
    scenario_name: str, impl_name: Optional[str] = None
) -> KnownAnswerVector:
    """Run one scenario and capture its known answer.

    ``impl_name`` defaults to the scenario family's ``:current`` impl.
    """
    spec = get_scenario(scenario_name)
    impl_name = impl_name or f"{spec.family}:current"
    impl = registry.get(impl_name)
    if impl.family != spec.family:
        raise ValueError(
            f"impl {impl_name!r} (family {impl.family!r}) cannot run "
            f"scenario {scenario_name!r} (family {spec.family!r})"
        )
    digester = CheckpointDigester(spec.cadence)
    state = impl.run(spec, digester)
    return KnownAnswerVector(
        name=spec.name,
        impl=impl_name,
        cadence=spec.cadence,
        scenario=spec.as_dict(),
        checkpoints=[c.as_list() for c in digester.checkpoints],
        terminal=digester.terminal().as_list(),
        state=canonical_state(state),
    )


def check_vector(vector: KnownAnswerVector) -> List[str]:
    """Re-run a vector's scenario and compare; [] means conformant.

    Each problem string names the first thing that disagreed — a
    checkpoint (index + both digests, bounding the divergence to one
    cadence window), the terminal digest/event-count, or a terminal-
    state key.
    """
    spec = ScenarioSpec.from_dict(vector.scenario)
    impl = registry.get(vector.impl)
    digester = CheckpointDigester(vector.cadence)
    state = impl.run(spec, digester)
    problems: List[str] = []

    got_checkpoints = [c.as_list() for c in digester.checkpoints]
    for i, want in enumerate(vector.checkpoints):
        if i >= len(got_checkpoints):
            problems.append(
                f"{vector.name}: trace ended early — checkpoint "
                f"{want[0]} missing (run produced "
                f"{digester.n_events} events)"
            )
            break
        got = got_checkpoints[i]
        if got != want:
            problems.append(
                f"{vector.name}: first divergence at checkpoint "
                f"index {want[0]} (events "
                f"[{want[0] - vector.cadence}, {want[0]})): recorded "
                f"digest {want[2][:16]}… @t={want[1]}us, got "
                f"{got[2][:16]}… @t={got[1]}us"
            )
            break
    else:
        if len(got_checkpoints) > len(vector.checkpoints):
            extra = got_checkpoints[len(vector.checkpoints)]
            problems.append(
                f"{vector.name}: trace grew — unexpected checkpoint "
                f"at index {extra[0]}"
            )

    got_terminal = digester.terminal().as_list()
    if not problems and got_terminal != vector.terminal:
        problems.append(
            f"{vector.name}: terminal trace mismatch: recorded "
            f"{vector.terminal[0]} events digest "
            f"{vector.terminal[2][:16]}…, got {got_terminal[0]} events "
            f"digest {got_terminal[2][:16]}…"
        )

    got_state = canonical_state(state)
    if got_state != vector.state:
        for key in sorted(set(vector.state) | set(got_state)):
            want_value = vector.state.get(key, "<missing>")
            got_value = got_state.get(key, "<missing>")
            if want_value != got_value:
                problems.append(
                    f"{vector.name}: terminal state {key!r}: recorded "
                    f"{want_value!r}, got {got_value!r}"
                )
    return problems


def save_vector(vector: KnownAnswerVector, directory: str) -> str:
    """Write one vector file (stable formatting); returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, vector_filename(vector.name))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(vector.as_dict(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def read_json(path: str, what: str) -> Any:
    """Parse one JSON file, failing closed: an unreadable file,
    undecodable bytes, bad JSON and nesting past the recursion limit are
    all a :class:`VectorSchemaError` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as error:
        raise VectorSchemaError(
            f"cannot read {what} {path} ({error.strerror or error}); "
            "point --dir at the conformance corpus directory"
        ) from None
    except (ValueError, RecursionError) as error:
        # ValueError covers JSONDecodeError and UnicodeDecodeError.
        reason = (
            "nested too deeply" if isinstance(error, RecursionError)
            else error
        )
        raise VectorSchemaError(
            f"{path} is not a valid {what}: {reason}"
        ) from None


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_digest_row(row: Any) -> bool:
    """``[index, time_us, digest]``, as checkpoints and terminal hold."""
    return (
        isinstance(row, list)
        and len(row) == 3
        and _is_int(row[0])
        and _is_int(row[1])
        and isinstance(row[2], str)
    )


#: Field -> (check, expected type), for the fields :func:`check_vector`
#: reads.
_FIELD_CHECKS = {
    "name": (lambda v: isinstance(v, str), "a string"),
    "impl": (lambda v: isinstance(v, str), "a string"),
    "cadence": (lambda v: _is_int(v) and v > 0, "a positive integer"),
    "scenario": (lambda v: isinstance(v, dict), "an object"),
    "checkpoints": (
        lambda v: isinstance(v, list) and all(map(_is_digest_row, v)),
        "a list of [index, time_us, digest] rows",
    ),
    "terminal": (_is_digest_row, "an [index, time_us, digest] row"),
    "state": (lambda v: isinstance(v, dict), "an object"),
}


def load_vector(path: str) -> KnownAnswerVector:
    """Load and schema-check one vector file."""
    data = read_json(path, "known-answer vector")
    if not isinstance(data, dict):
        raise VectorSchemaError(
            f"{path} is not a valid known-answer vector (expected a "
            "JSON object)"
        )
    missing = [key for key in _REQUIRED_KEYS if key not in data]
    if missing:
        raise VectorSchemaError(
            f"{path} is missing required vector keys {missing}; "
            "re-record it with 'repro conformance record'"
        )
    if data["schema"] != SCHEMA_VERSION:
        raise VectorSchemaError(
            f"{path} has vector schema {data['schema']!r} but this "
            f"build reads schema {SCHEMA_VERSION}; re-record it with "
            "'repro conformance record'"
        )
    for key, (check, expected) in _FIELD_CHECKS.items():
        if not check(data[key]):
            raise VectorSchemaError(
                f"{path} is not a valid known-answer vector: {key!r} "
                f"must be {expected}"
            )
    return KnownAnswerVector(
        name=data["name"],
        impl=data["impl"],
        cadence=data["cadence"],
        scenario=data["scenario"],
        checkpoints=data["checkpoints"],
        terminal=data["terminal"],
        state=data["state"],
        schema=data["schema"],
    )
