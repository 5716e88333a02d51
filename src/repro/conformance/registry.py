"""The :class:`ReferenceImpl` registry: named, runnable implementations.

A reference implementation is anything the conformance harness can run
against a :class:`~repro.conformance.scenarios.ScenarioSpec` while
feeding a trace sink: the production agent stack, an implementation
namespace (live or frozen) driven by a scripted scenario, or — in the
tests — a deliberately perturbed variant the bisector must catch.

Names are ``family:variant`` (``"kernel:current"``, ``"ml:seed"``,
``"agent:current"``).  Two impls are differentially comparable iff they
share a *family* — they then accept the same scenarios and emit the
same event vocabulary.  The built-ins register on import of
:mod:`repro.conformance.scenarios` from the shared
:mod:`repro.conformance.reference` namespaces, so the bench harness and
the conformance harness can never disagree about what "the frozen seed
implementation" is.  A future SoA backend registers here as
``kernel:soa`` (plus ``agent:soa`` once the agent stack runs on it) and
is immediately checkable against every committed vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = ["ReferenceImpl", "register", "get", "available", "unregister"]

#: ``run(spec, sink) -> terminal state dict``.  ``sink`` is a trace sink
#: (``on_event(time_us, payload)``) or ``None`` for an unobserved run.
Runner = Callable[[Any, Optional[Any]], Dict[str, Any]]


@dataclass(frozen=True)
class ReferenceImpl:
    """One registered implementation the harness can run and compare."""

    name: str
    family: str
    description: str
    run: Runner = field(repr=False)

    def __post_init__(self) -> None:
        if ":" not in self.name:
            raise ValueError(
                f"impl name must be 'family:variant', got {self.name!r}"
            )
        if self.name.split(":", 1)[0] != self.family:
            raise ValueError(
                f"impl name {self.name!r} does not match family "
                f"{self.family!r}"
            )


_REGISTRY: Dict[str, ReferenceImpl] = {}


def register(impl: ReferenceImpl) -> ReferenceImpl:
    """Add ``impl`` to the registry; re-registering a name is an error."""
    if impl.name in _REGISTRY:
        raise ValueError(f"reference impl {impl.name!r} already registered")
    _REGISTRY[impl.name] = impl
    return impl


def unregister(name: str) -> None:
    """Remove one impl (tests register throwaway perturbed variants)."""
    _REGISTRY.pop(name, None)


def get(name: str) -> ReferenceImpl:
    """Look up one impl by name, with a helpful error on a miss."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown reference impl {name!r}; registered: "
            f"{', '.join(sorted(_REGISTRY)) or '(none)'}"
        ) from None


def available(family: Optional[str] = None) -> List[str]:
    """Registered impl names, optionally filtered to one family."""
    return sorted(
        name
        for name, impl in _REGISTRY.items()
        if family is None or impl.family == family
    )
