"""Fault injection for the execution substrate itself.

The paper's method is to trust a learning agent only after watching it
survive injected faults; this module applies the same discipline to our
own worker pool.  A :class:`ChaosPlan` is a *seeded, deterministic*
description of which work units get which fault:

* ``crash`` — the worker process exits hard (``os._exit``) the moment
  it picks up a selected unit: the task is lost, the supervisor must
  notice the dead process and retry.
* ``hang`` — the worker sleeps far past any reasonable deadline: only
  the per-unit timeout can recover the slot.
* ``slow`` — the worker sleeps briefly, then runs the unit normally:
  the supervisor must tolerate stragglers without killing them.
* ``corrupt_cache`` — applied on the *parent* side via
  :class:`ChaosCache`: selected cache writes are garbled on disk, so a
  later read must quarantine the object instead of trusting it.

Selection is a pure function of ``(seed, unit_id)`` — no RNG state, no
wall clock — so a chaos run is exactly reproducible, and the committed
chaos suite can assert the *exact* set of faulted/quarantined units.
Faults fire only on attempt 0, proving that retries recover; units
listed in ``poison_units`` fault on every attempt, proving that
quarantine engages and the run degrades to an explicit hole rather than
dying.

Worker-side faults are applied by :func:`apply_worker_fault`, which the
supervised worker loop calls before executing each task.  It refuses to
fire outside a worker process (``_IN_WORKER``), so an accidentally
activated plan can never ``os._exit`` the main process.  Plans travel
to workers inside the task tuple (not via environment inheritance, so
a warm pool spawned before the plan existed still honors it).

The dispatcher has one source of plans: the ``REPRO_CHAOS_PLAN``
environment variable (inline JSON, :func:`active_plan`), so any command
runs under a plan without new flags, and ``repro chaos`` and the tests
set it around the faulted run with :func:`activated`.  The fault's
timings (:data:`HANG_S`, :data:`SLOW_S`, :data:`EXIT_CODE`) are module
constants.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.cache.store import ResultCache

__all__ = [
    "CHAOS_FAULT_KINDS",
    "ChaosCache",
    "ChaosPlan",
    "activated",
    "active_plan",
    "apply_worker_fault",
]

CHAOS_FAULT_KINDS = ("crash", "hang", "corrupt_cache", "slow")

#: Environment variable holding an inline JSON chaos plan.
CHAOS_PLAN_ENV = "REPRO_CHAOS_PLAN"

#: Sleep of a ``hang`` fault: far beyond any deadline.
HANG_S = 3600.0
#: Sleep of a ``slow`` fault: within any sane deadline.
SLOW_S = 0.2
#: Worker exit code of a ``crash`` fault (diagnostic only).
EXIT_CODE = 23

#: Set by the supervised worker bootstrap; worker-side faults refuse to
#: fire when this is False (i.e. in the main process).
_IN_WORKER = False


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded, deterministic fault-injection plan.

    Attributes:
        kind: one of :data:`CHAOS_FAULT_KINDS`.
        probability: per-unit selection probability (hashed, not drawn:
            a unit is selected iff ``hash(seed, unit_id) < p``).
        seed: selection seed; changing it selects a different subset.
        poison_units: unit ids that fault on *every* attempt — these
            must end up quarantined, exactly and by name.
    """

    kind: str
    probability: float = 0.0
    seed: int = 0
    poison_units: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_FAULT_KINDS:
            raise ValueError(
                f"unknown chaos fault {self.kind!r}; "
                f"expected one of {CHAOS_FAULT_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    # -- selection -----------------------------------------------------------

    def selects(self, unit_id: str) -> bool:
        """Whether this plan targets ``unit_id`` at all (pure in seed)."""
        if unit_id in self.poison_units:
            return True
        if self.probability <= 0.0:
            return False
        digest = hashlib.sha256(
            f"{self.seed}:{unit_id}".encode("utf-8")
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return fraction < self.probability

    def should_fault(self, unit_id: str, attempt: int) -> bool:
        """Whether attempt ``attempt`` of ``unit_id`` gets the fault."""
        if unit_id in self.poison_units:
            return True
        return attempt == 0 and self.selects(unit_id)

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "probability": self.probability,
            "seed": self.seed,
            "poison_units": list(self.poison_units),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChaosPlan":
        """The plan ``data`` describes.

        Raises:
            ValueError: a key this plan does not read (a dropped field
                would let a chaos run pass without testing anything).
        """
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown chaos plan key(s): {unknown}")
        return cls(
            kind=str(data["kind"]),
            probability=float(data.get("probability", 0.0)),
            seed=int(data.get("seed", 0)),
            poison_units=tuple(
                str(u) for u in data.get("poison_units", ())
            ),
        )

    def describe(self) -> str:
        parts = [f"fault={self.kind}", f"p={self.probability!r}",
                 f"seed={self.seed}"]
        if self.poison_units:
            parts.append(f"poison={','.join(self.poison_units)}")
        return " ".join(parts)


def active_plan() -> Optional[ChaosPlan]:
    """The plan in ``$REPRO_CHAOS_PLAN`` (inline JSON), if any.

    Read fresh on every call — the dispatcher consults it once per
    dispatch in the *parent* process and ships the plan inside each
    task, so warm workers forked before the variable was set still see
    it.  Malformed JSON raises: a chaos run that silently becomes a
    fault-free run would "pass" every check vacuously.
    """
    raw = os.environ.get(CHAOS_PLAN_ENV)
    if not raw:
        return None
    return ChaosPlan.from_dict(json.loads(raw))


@contextlib.contextmanager
def activated(plan: ChaosPlan) -> Iterator[None]:
    """Run the block under ``plan`` (``$REPRO_CHAOS_PLAN``), then put
    back whatever the variable held before."""
    previous = os.environ.get(CHAOS_PLAN_ENV)
    os.environ[CHAOS_PLAN_ENV] = json.dumps(plan.to_dict())
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(CHAOS_PLAN_ENV, None)
        else:
            os.environ[CHAOS_PLAN_ENV] = previous


def apply_worker_fault(
    plan: Optional[Dict[str, Any]], unit_id: str, attempt: int
) -> None:
    """Apply ``plan``'s worker-side fault to this task, if selected.

    Called by the supervised worker loop before executing each unit.
    ``corrupt_cache`` is a parent-side fault and is a no-op here.
    Refuses to fire in the main process: crash/hang faults must only
    ever take down a supervised worker.
    """
    if not plan or not _IN_WORKER:
        return
    chaos = ChaosPlan.from_dict(plan)
    if not chaos.should_fault(unit_id, attempt):
        return
    if chaos.kind == "crash":
        os._exit(EXIT_CODE)
    elif chaos.kind == "hang":
        time.sleep(HANG_S)
    elif chaos.kind == "slow":
        time.sleep(SLOW_S)


@dataclass
class ChaosCache(ResultCache):
    """A :class:`ResultCache` whose selected writes are corrupted.

    Every ``put`` lands normally and is then garbled on disk when the
    plan selects its key — modeling a write torn by a crashed or buggy
    writer *after* it was addressed.  A later ``get`` of that key must
    quarantine the object (DESIGN.md §11) and degrade to a miss, never
    return garbage.  Selection hashes the cache key with the plan's
    seed, so the corrupted subset is exactly reproducible.
    """

    plan: Optional[ChaosPlan] = field(default=None)
    corrupted_keys: list = field(default_factory=list)

    def put(self, key: str, payload: Any) -> None:
        super().put(key, payload)
        if self.plan is None or self.plan.kind != "corrupt_cache":
            return
        if not self.plan.selects(key):
            return
        with open(self._object_path(key), "wb") as handle:
            handle.write(b"chaos: torn write\0")
        self.corrupted_keys.append(key)
