"""Sub-artifact sharding: sharded passes are row-identical to serial.

The work-unit contract (DESIGN.md §7) promises that decomposing an
artifact into ``(artifact, series)`` units changes wall-clock only.
These tests pin that: the parallel series-granular driver must emit the
same rows as a serial pass — including for fig7, whose reduction
normalizes each workload against its static-300ms sibling unit — and
the golden pinned artifacts must keep their seed digests through the
sharded path.
"""

from pathlib import Path

import pytest

from repro.conformance.corpus import load_golden_digests
from repro.experiments.common import experiment_digest
from repro.experiments.driver import (
    ARTIFACT_SPECS,
    ARTIFACTS,
    artifact_units,
    reproduce_all,
    run_artifact,
)

_GOLDEN = load_golden_digests(
    str(Path(__file__).resolve().parents[1] / "conformance" / "vectors")
)
GOLDEN_EXPERIMENT_DIGESTS = _GOLDEN["experiments"]
GOLDEN_EXPERIMENT_SCALE = _GOLDEN["experiment_scale"]


#: The single-kernel artifacts: one ``None`` unit each.
WHOLE_ARTIFACTS = {"table1", "table2", "fig5"}


def test_every_artifact_yields_work_units():
    """Series keys resolve without simulating, and are unique."""
    for name in ARTIFACTS:
        units = artifact_units(name, scale=1.0)
        assert len(units) >= 1
        keys = [series for _name, series in units]
        assert len(set(keys)) == len(keys)
        if name in WHOLE_ARTIFACTS:
            assert keys == [None]
        else:
            assert len(units) > 1, f"{name} decomposed to a single unit"
            assert None not in keys


def test_series_spec_paths_resolve():
    """Every registry entry is an artifact triple plus a kwargs builder."""
    assert tuple(ARTIFACT_SPECS) == ARTIFACTS
    for name, (artifact, kwargs_builder) in ARTIFACT_SPECS.items():
        for part in (artifact.series, artifact.unit, artifact.assemble):
            assert callable(part), name
        assert isinstance(kwargs_builder(0.1), dict)


@pytest.mark.parametrize(
    "name, scale", [("table1", 0.1), ("fig4", 0.1), ("fig6-middle", 0.05)]
)
def test_run_artifact_equals_reproduce_all(name, scale):
    """The in-process composer and the work-unit pass agree bit for bit,
    for whole and decomposed artifacts alike."""
    direct = run_artifact(name, **ARTIFACT_SPECS[name][1](scale))
    (run,) = reproduce_all(only=[name], scale=scale)
    assert experiment_digest(direct) == experiment_digest(run.result)


def test_run_artifact_defaults_apply_to_omitted_kwargs():
    assert experiment_digest(
        run_artifact("fig4", seconds=250)
    ) == experiment_digest(
        run_artifact("fig4", seconds=250, seed=0, delay_seconds=30)
    )


def test_run_artifact_rejects_unknown_names():
    with pytest.raises(ValueError, match="'nope'"):
        run_artifact("nope")


def test_decomposition_shrinks_the_straggler():
    """fig7 (the full-pass tail) must decompose below its total cost."""
    units = artifact_units("fig7", scale=1.0)
    assert len(units) == 9  # 3 workloads x 3 policies


def _rows(runs):
    return [(run.name, run.result.columns, run.result.rows) for run in runs]


def test_sharded_golden_artifacts_keep_seed_digests():
    """Sub-artifact parallel pass reproduces the pinned seed digests."""
    runs = reproduce_all(
        parallel=True,
        workers=2,
        only=list(GOLDEN_EXPERIMENT_DIGESTS),
        scale=GOLDEN_EXPERIMENT_SCALE,
    )
    got = {run.name: experiment_digest(run.result) for run in runs}
    assert got == GOLDEN_EXPERIMENT_DIGESTS


def test_fig7_sharded_equals_serial():
    """The cross-unit reduction (per-workload static-300ms baseline)
    survives sharding: parallel rows == serial rows, bit for bit."""
    serial = reproduce_all(only=["fig7"], scale=0.25)
    parallel = reproduce_all(
        parallel=True, workers=3, only=["fig7"], scale=0.25,
    )
    assert _rows(serial) == _rows(parallel)


def test_fig2_sharded_equals_serial():
    """The shared-reference normalization (clean guarded run) survives
    sharding."""
    serial = reproduce_all(only=["fig2"], scale=0.1)
    parallel = reproduce_all(
        parallel=True, workers=4, only=["fig2"], scale=0.1,
    )
    assert _rows(serial) == _rows(parallel)


def test_streaming_stays_canonical_under_series_sharding():
    only = ["table1", "fig2", "fig4"]
    seen = []
    runs = reproduce_all(
        parallel=True, workers=3, only=only, scale=0.1,
        on_result=lambda run: seen.append(run.name),
    )
    assert [run.name for run in runs] == only
    assert seen == only
