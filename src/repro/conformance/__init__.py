"""Golden-model conformance: known-answer vectors + differential replay.

The subsystem that makes "bit-identical results" a checkable, debuggable
property instead of a scattered end-state assertion (DESIGN.md §10):

* :mod:`~repro.conformance.reference` — the frozen seed implementations
  (the golden models) paired with their live counterparts.
* :mod:`~repro.conformance.registry` — named reference implementations
  behind one :class:`~repro.conformance.registry.ReferenceImpl` protocol.
* :mod:`~repro.conformance.scenarios` — deterministic runs: production
  agent nodes with traced event logs, and scripted scenarios that drive
  any implementation namespace through the shared API surface.
  Importing it registers the built-in implementations.
* :mod:`~repro.conformance.vectors` — the committed known-answer vector
  format (checkpointed trace digests + terminal state).
* :mod:`~repro.conformance.runner` / :mod:`~repro.conformance.bisector`
  — differential replay that localizes any divergence to the exact
  first diverging event.
* :mod:`~repro.conformance.corpus` — the committed vector directory and
  its ``golden_digests.json`` table.
* :mod:`~repro.conformance.cli` — ``repro conformance
  record|check|diff|list``.

The package itself imports nothing: ``repro.cli`` attaches the
``conformance`` parser on every start, and only running a conformance
command loads the scenarios and the golden models.
"""
