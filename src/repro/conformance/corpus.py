"""The committed corpus: vector files plus the golden-digest table.

A corpus directory (``tests/conformance/vectors/`` in this repo) holds
one ``<scenario>.kav.json`` per scenario and one ``golden_digests.json``
pinning the fleet-aggregate and experiment digests.  That table is the
only place a golden digest is written: the golden-digest tests and
``repro conformance check`` load their expected values from it, so a
legitimate physics change is one ``repro conformance record``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.conformance.vectors import (
    SCHEMA_VERSION,
    VectorSchemaError,
    check_vector,
    load_vector,
    read_json,
    record_vector,
    save_vector,
    vector_filename,
)

__all__ = [
    "GOLDEN_FILENAME",
    "check_corpus",
    "check_golden_digests",
    "load_golden_digests",
    "record_corpus",
    "record_golden_digests",
    "save_golden_digests",
]

GOLDEN_FILENAME = "golden_digests.json"


def record_golden_digests() -> Dict[str, Any]:
    """Re-measure the pinned fleet and experiment digests, live."""
    from repro.conformance.scenarios import (
        GOLDEN_ARTIFACTS,
        GOLDEN_EXPERIMENT_SCALE,
        GOLDEN_FLEET_CONFIGS,
    )
    from repro.experiments.common import experiment_digest
    from repro.experiments.driver import FleetDriver, reproduce_all

    fleets = {
        name: FleetDriver(config, workers=1).run().digest()
        for name, config in GOLDEN_FLEET_CONFIGS.items()
    }
    runs = reproduce_all(
        only=list(GOLDEN_ARTIFACTS), scale=GOLDEN_EXPERIMENT_SCALE
    )
    experiments = {
        run.name: experiment_digest(run.result) for run in runs
    }
    return {
        "schema": SCHEMA_VERSION,
        "experiment_scale": GOLDEN_EXPERIMENT_SCALE,
        "fleet": fleets,
        "experiments": experiments,
    }


def save_golden_digests(data: Dict[str, Any], directory: str) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, GOLDEN_FILENAME)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def load_golden_digests(directory: str) -> Dict[str, Any]:
    """Load and schema-check the golden-digest table of a corpus dir."""
    path = os.path.join(directory, GOLDEN_FILENAME)
    data = read_json(path, "golden-digest table")
    if not isinstance(data, dict):
        raise VectorSchemaError(
            f"{path} is not a valid golden-digest table (expected a JSON "
            "object)"
        )
    for key in ("schema", "experiment_scale", "fleet", "experiments"):
        if key not in data:
            raise VectorSchemaError(
                f"{path} is missing required key {key!r}; re-record it "
                "with 'repro conformance record'"
            )
    if data["schema"] != SCHEMA_VERSION:
        raise VectorSchemaError(
            f"{path} has schema {data['schema']!r} but this build reads "
            f"schema {SCHEMA_VERSION}; re-record it with "
            "'repro conformance record'"
        )
    for section in ("fleet", "experiments"):
        table = data[section]
        if not isinstance(table, dict) or not all(
            isinstance(digest, str) for digest in table.values()
        ):
            raise VectorSchemaError(
                f"{path} is not a valid golden-digest table: {section!r} "
                "must map names to digest strings"
            )
    return data


def check_golden_digests(directory: str) -> List[str]:
    """Re-measure and compare against the committed table; [] = ok."""
    want = load_golden_digests(directory)
    got = record_golden_digests()
    problems: List[str] = []
    for section in ("fleet", "experiments"):
        for name in sorted(set(want[section]) | set(got[section])):
            want_digest = want[section].get(name, "<missing>")
            got_digest = got[section].get(name, "<missing>")
            if want_digest != got_digest:
                problems.append(
                    f"golden {section} digest {name!r}: recorded "
                    f"{want_digest[:16]}…, got {got_digest[:16]}…"
                )
    return problems


def record_corpus(
    directory: str,
    scenarios: Optional[List[str]] = None,
    golden: bool = True,
) -> List[str]:
    """(Re)record vectors (and optionally the golden table); paths out."""
    from repro.conformance.scenarios import default_scenarios

    paths = []
    for name in scenarios or default_scenarios():
        paths.append(save_vector(record_vector(name), directory))
    if golden:
        paths.append(save_golden_digests(record_golden_digests(), directory))
    return paths


def check_corpus(
    directory: str,
    scenarios: Optional[List[str]] = None,
    golden: bool = True,
) -> List[str]:
    """Check committed vectors (and the golden table); [] = conformant."""
    from repro.conformance.scenarios import default_scenarios

    problems: List[str] = []
    for name in scenarios or default_scenarios():
        path = os.path.join(directory, vector_filename(name))
        if not os.path.exists(path):
            problems.append(
                f"{name}: no committed vector at {path} "
                "(run 'repro conformance record')"
            )
            continue
        problems.extend(check_vector(load_vector(path)))
    if golden:
        problems.extend(check_golden_digests(directory))
    return problems
