"""The benchmark's names, its manifest and its smoke run agree.

Runs every workload at smoke size (one cold + one warm pass, 8 cells,
8 nodes x 5 s, 3 jobs) through ``run.py`` itself, the way the driver
does: as subprocesses, from a working directory that is not the repo.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


MANIFEST = load(os.path.join(REPO, "BENCHMARK.json"))
CATALOG = load(os.path.join(HERE, "layers.json"))
WORKLOADS = [entry["name"] for entry in MANIFEST["workloads"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One untraced run of all four workloads, and (concurrently, to
    stay inside the tier-1 budget) one traced run of one workload."""
    cwd = tmp_path_factory.mktemp("stack-bench")
    traced = subprocess.Popen(
        RUN + ["--workload", "reproduce_inline", "--smoke", "--trace", "1",
               "--root", "traced"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        untraced = subprocess.run(
            RUN + ["--smoke", "--seed", "0", "--root", "untraced",
                   "--out", "smoke.json"],
            cwd=cwd, capture_output=True, text=True, timeout=120,
        )
        traced_out, _ = traced.communicate(timeout=120)
    finally:
        if traced.poll() is None:
            traced.kill()
            traced.wait()
    assert untraced.returncode == 0, untraced.stdout + untraced.stderr
    assert traced.returncode == 0, traced_out
    return {
        "cwd": cwd,
        "combined": load(cwd / "smoke.json"),
        "traced": json.loads(traced_out.strip().splitlines()[-1]),
    }


def test_manifest_matches_catalog():
    def strip(entries, keys):
        return [{key: entry[key] for key in keys} for entry in entries]

    assert MANIFEST["paths"] == ["benchmarks/stack"]
    assert MANIFEST["end_to_end"] == strip(
        CATALOG["end_to_end"], ("name", "unit", "better", "bound")
    )
    assert MANIFEST["per_layer"] == strip(
        CATALOG["per_layer"], ("name", "unit", "better")
    )
    assert "setup_s" in [entry["name"] for entry in MANIFEST["end_to_end"]]
    assert len(MANIFEST["per_layer"]) <= 128
    names = WORKLOADS + [
        entry["name"]
        for entry in MANIFEST["end_to_end"] + MANIFEST["per_layer"]
    ]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name


def test_every_move_names_a_real_metric_and_workload():
    # A demoted end-to-end metric keeps its name as a target: the layer
    # metrics that move it did not stop doing so when it lost its bound.
    end_to_end = {
        entry["name"] for entry in CATALOG["end_to_end"] + CATALOG["demoted"]
    }
    per_layer = {entry["name"] for entry in CATALOG["per_layer"]}
    for entry in CATALOG["demoted"]:
        assert entry["as"] in per_layer
    for entry in CATALOG["per_layer"]:
        assert entry["layer"] == entry["name"].split(".")[0]
        for metric, workload in entry["moves"]:
            assert metric in end_to_end, (entry["name"], metric)
            assert workload in WORKLOADS, (entry["name"], workload)


def test_untraced_smoke_emits_the_end_to_end_names(smoke):
    expected = [entry["name"] for entry in MANIFEST["end_to_end"]]
    assert sorted(smoke["combined"]["workloads"]) == sorted(WORKLOADS)
    for name, record in smoke["combined"]["workloads"].items():
        untraced = record["untraced"]
        assert sorted(untraced["end_to_end"]) == sorted(expected), name
        assert untraced["failed"] == 0 and not untraced["errors"], name
        assert untraced["samples"]["cold"]["n"] >= 1, name
        for metric in expected:
            # CPU is read in 10 ms ticks, coarse for a smoke-sized pass.
            value = untraced["end_to_end"][metric]["value"]
            assert value > 0 or metric == "cpu_s", (name, metric)


def test_traced_smoke_emits_the_per_layer_names(smoke):
    result = smoke["traced"]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    units = {entry["name"]: entry["unit"] for entry in MANIFEST["per_layer"]}
    assert sorted(result["metrics"]) == sorted(units)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == units[name], name


def test_compare_of_a_file_with_itself_is_all_ok(smoke):
    done = subprocess.run(
        RUN + ["--compare", "smoke.json", "smoke.json"],
        cwd=smoke["cwd"], capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    verdicts = re.findall(r"\b(ok|regressed|unresolved|DIFFERS)$",
                          done.stdout, flags=re.M)
    assert verdicts and set(verdicts) == {"ok"}, done.stdout
