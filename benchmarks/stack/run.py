"""The repo's benchmark: four workloads, cold/warm end-to-end metrics, and
a per-layer tax waterfall.  README.md in this directory is the manual.

    python benchmarks/stack/run.py --seed N            # all four workloads
        [--workload W] [--seconds S] [--trace] [--out FILE] [--root DIR]
    python benchmarks/stack/run.py --compare A.json B.json

Measures the program from outside only: public entry points, nothing
under ``src/`` changed, nothing imported from ``repro.perf``.  Every
time is host time (``time.perf_counter``) unless it says *simulated*.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

import instruments  # a sibling: the script's directory is on sys.path
from instruments import median

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")

WORKLOAD_NAMES = (
    "reproduce_inline", "sweep_tiny_cells", "fleet_pool", "serve_roundtrip",
)
SETUP_PROBES = 3
#: Share of ``--seconds`` the traced run spends on the workload's own
#: blocks; the probes and the ladder take the rest.
TRACED_SHARE = 0.2


def load_catalog() -> Dict[str, List[Dict[str, Any]]]:
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as handle:
        return json.load(handle)


def tail(values: List[float]) -> Optional[Tuple[int, float]]:
    """The highest of p90/p95/p99 with at least ten samples beyond it."""
    ordered = sorted(values)
    for percent in (99, 95, 90):
        if len(ordered) * (100 - percent) >= 1000:
            return percent, ordered[int(len(ordered) * percent / 100)]
    return None


def noise(values: List[float]) -> Optional[float]:
    """Relative half-width of the median's 95 % interval (the box-plot
    notch: 1.57 x IQR / sqrt(n)); ``None`` below four samples."""
    if len(values) < 4:
        return None
    ordered = sorted(values)
    quarter = len(ordered) // 4
    iqr = ordered[-quarter - 1] - ordered[quarter]
    return 1.57 * iqr / len(ordered) ** 0.5 / median(ordered)


def machine(root: str) -> Dict[str, Any]:
    """Where this ran: enough to judge whether two files are comparable."""
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass  # the driver's checkout is not a git repository
    fstype, longest = "unknown", -1
    target = os.path.realpath(root)
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                _dev, mount, kind = line.split()[:3]
                if target.startswith(mount) and len(mount) > longest:
                    fstype, longest = kind, len(mount)
    except OSError:
        pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "root_fstype": fstype,
        "loadavg": os.getloadavg()[0],
    }


# -- set-up time -------------------------------------------------------------


@contextlib.contextmanager
def session(workload: Any, base: str, traced: bool = False,
            prepare: bool = True):
    """Set up, (prepare,) yield, and tear down whatever came up — also
    when set-up itself failed half way, so no process is orphaned."""
    try:
        workload.setup(base, traced)
        if prepare:
            workload.prepare()
        yield
    finally:
        workload.teardown()


def setup_probe(args: argparse.Namespace) -> int:
    """Child mode: set the workload up, say when it was ready, leave."""
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    with session(workload, args.root, prepare=False):
        print(f"ready {time.perf_counter()!r}", flush=True)
    return 0


def measure_setup(args: argparse.Namespace, base: str) -> List[float]:
    """Set-up time of fresh processes: spawn to "ready".

    ``perf_counter`` is CLOCK_MONOTONIC on Linux, one clock for every
    process, so the child's "ready" instant minus this process's spawn
    instant includes interpreter start and imports.
    """
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--root", base,
    ] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        started = time.perf_counter()
        done = subprocess.run(
            command, capture_output=True, text=True, check=True,
        )
        ready = [
            line for line in done.stdout.splitlines()
            if line.startswith("ready ")
        ]
        samples.append(float(ready[-1].split()[1]) - started)
    return samples


# -- one workload ------------------------------------------------------------


def run_blocks(workload: Any, base: str, seconds: float, min_blocks: int,
               spans: Any = None) -> List[Any]:
    """Repeat blocks for ``seconds`` (and at least ``min_blocks``): stop
    when the next block, at the mean block time so far, would end
    outside the window."""
    blocks = []
    started = time.perf_counter()
    while True:
        blocks.append(workload.block(len(blocks), base, spans))
        elapsed = time.perf_counter() - started
        if (len(blocks) >= min_blocks
                and elapsed + elapsed / len(blocks) > seconds):
            return blocks


def end_to_end(blocks: List[Any], setup: List[float],
               peak_rss_mb: float) -> Dict[str, Dict[str, Any]]:
    cold = [wall for block in blocks for wall in block.cold]
    cold_total = sum(cold)
    values = {
        "setup_s": (median(setup), noise(setup)),
        "cold_p50_s": (median(cold), noise(cold)),
        "units_per_s": (
            sum(block.units for block in blocks) / cold_total, noise(cold)),
        "sim_node_s_per_s": (
            sum(block.sim_node_s for block in blocks) / cold_total,
            noise(cold)),
        "cpu_s": (
            sum(block.cpu_s for block in blocks) / len(blocks),
            noise([block.cpu_s for block in blocks])),
        "peak_rss_mb": (peak_rss_mb, None),
        "disk_kb_per_pass": (
            median([block.disk_bytes for block in blocks]) / 1024.0,
            noise([block.disk_bytes for block in blocks])),
    }
    return {name: {"value": value, "noise": spread}
            for name, (value, spread) in values.items()}


def check_pinned(workload: Any, blocks: List[Any], layers: Dict[str, float],
                 errors: List[str]) -> None:
    """``--seed 0`` at full size also has to match ``expected.json``."""
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)
    pinned = expected["digests"].get(workload.name)
    if pinned and blocks[0].digest != pinned:
        errors.append(
            f"digest {blocks[0].digest[:12]} != pinned {pinned[:12]}"
        )
    for name, value in expected["counts"].items():
        if name in layers and layers[name] != value:
            errors.append(f"{name} = {layers[name]} != pinned {value}")


def run_workload(args: argparse.Namespace) -> int:
    """Measure one workload; ``--trace`` picks which half of the metrics."""
    import workloads

    catalog = load_catalog()

    base = tempfile.mkdtemp(prefix="run-", dir=args.root)
    record: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "machine": machine(args.root),
    }
    if record["machine"]["loadavg"] > (os.cpu_count() or 1):
        print(f"warning: load average {record['machine']['loadavg']:.2f} "
              f"exceeds {os.cpu_count()} cores; timings will be noisy")
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
        errors: List[str] = []
        if args.workload == "reproduce_inline":
            print("reproduce_inline: --seed does not change this workload "
                  "(the paper experiments fix their own seeds)")
        if args.trace:
            blocks, metrics = traced(args, workload, base, record)
            units = {entry["name"]: entry["unit"]
                     for entry in catalog["per_layer"]}
            record["per_layer"] = metrics
        else:
            setup = measure_setup(args, base)
            with session(workload, base):
                blocks = run_blocks(
                    workload, base, args.seconds, workload.min_blocks
                )
                peak = instruments.tree_peak_rss_mb()
            record["end_to_end"] = end_to_end(blocks, setup, peak)
            metrics = {name: entry["value"]
                       for name, entry in record["end_to_end"].items()}
            units = {entry["name"]: entry["unit"]
                     for entry in catalog["end_to_end"]}
        for block in blocks:
            errors.extend(block.errors)
        if args.seed == 0 and not args.smoke:
            check_pinned(workload, blocks, metrics, errors)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    attempted = sum(block.attempted for block in blocks)
    failed = sum(block.failed for block in blocks)
    cold = [wall for block in blocks for wall in block.cold]
    warm = [wall for block in blocks for wall in block.warm]
    record.update({
        "attempted": attempted, "failed": failed, "errors": errors,
        "failed_share": failed / attempted,
        "digest": blocks[0].digest,
        "samples": {"cold": summary(cold), "warm": summary(warm),
                    "blocks": len(blocks)},
    })
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"benchmark bug: metrics not measured: {missing}")
    report(record, metrics, units)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    correct = not errors and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0 if correct else 1


def summary(values: List[float]) -> Dict[str, Any]:
    out: Dict[str, Any] = {"n": len(values), "p50_s": median(values)}
    high = tail(values)
    if high:
        out[f"p{high[0]}_s"] = high[1]
    return out


def report(record: Dict[str, Any], metrics: Dict[str, float],
           units: Dict[str, str]) -> None:
    """Every metric by name with its unit, then the sample counts."""
    title = f"{record['workload']} seed={record['seed']}"
    print(f"== {title} ({'traced' if record['trace'] else 'untraced'}) ==")
    for name in units:
        print(f"  {name:<34} {metrics[name]:>14.6g} {units[name]}")
    for phase in ("cold", "warm"):
        stats = record["samples"][phase]
        extra = "".join(
            f"  {key[:-2]} {value:.6g} s"
            for key, value in stats.items() if key not in ("n", "p50_s")
        )
        print(f"  {phase}: n={stats['n']}  p50 {stats['p50_s']:.6g} s{extra}")
    print(f"  failed_share {record['failed_share']:.6g} ratio "
          f"({record['failed']}/{record['attempted']} units), "
          f"{record['samples']['blocks']} blocks, digest {record['digest'][:16]}")
    if record["trace"]:
        import probes

        cells = record["ladder_cells"]
        print("  ladder (delta per unit over the previous rung, owner):")
        previous = None
        for name, what, owner in probes.LADDER:
            value = metrics[name]
            delta = "" if previous is None else (
                f"{(value - previous) * 1e3 / cells:+8.2f} ms/unit"
            )
            print(f"    {name:<30} {value:8.4f} s {delta:>18}  "
                  f"{owner}: {what}")
            previous = value
        print("  self time by layer, traced blocks (s): " + ", ".join(
            f"{layer} {seconds:.3f}"
            for layer, seconds in sorted(record["self_time_s"].items())
        ))
    for error in record["errors"][:10]:
        print(f"  ERROR: {error}")


def traced(args: argparse.Namespace, workload: Any, base: str,
           record: Dict[str, Any]) -> Tuple[List[Any], Dict[str, float]]:
    """The traced run: the workload's blocks without and then with the
    benchmark's instruments, then every probe and the ladder."""
    import probes
    import workloads

    window = args.seconds * TRACED_SHARE
    with session(workload, base):
        plain = run_blocks(workload, base, window, 1)
    spans = instruments.Spans()
    with session(workload, base, traced=True):
        with instruments.counted_fsync(spans):
            blocks = run_blocks(workload, base, window, 1, spans)
        counters = workload.pool_counters()
    workload.finish_trace(blocks)

    metrics = {
        name: median([block.layers[name] for block in blocks])
        for name in blocks[0].layers
    }
    metrics["bench.trace_overhead_ratio"] = (
        median([w for b in blocks for w in b.cold])
        / median([w for b in plain for w in b.cold])
    )
    metrics["bench.warm_p50_s"] = median([w for b in plain for w in b.warm])
    metrics["resilience.retries"] = float(
        counters.get("submitted", 0) - counters.get("completed", 0)
    )
    metrics["resilience.quarantined"] = float(
        sum(block.quarantined for block in blocks + plain)
    )
    metrics.update(probes.run_all(
        args.seed, base, args.smoke,
        skip_experiments=workload.name == "reproduce_inline",
        ladder_repeats=(
            3 if workload.name == "sweep_tiny_cells" and not args.smoke else 1
        ),
    ))
    record["spans"] = spans.export()
    record["self_time_s"] = spans.self_times()
    record["ladder_cells"] = len(
        workloads.sweep_spec(args.seed, args.smoke).expand()
    )
    return plain + blocks, metrics


# -- all workloads -----------------------------------------------------------


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own child process; one combined file."""
    out = args.out or f"bench-stack-{args.seed}.json"
    combined: Dict[str, Any] = {
        "seed": args.seed, "machine": machine(args.root), "workloads": {},
    }
    status = 0
    parts = tempfile.mkdtemp(prefix="parts-", dir=args.root)
    try:
        for name in WORKLOAD_NAMES:
            for trace in ([0, 1] if args.trace else [0]):
                part = os.path.join(parts, f"{name}.{trace}.json")
                command = [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--root", args.root, "--out", part,
                ] + (["--smoke"] if args.smoke else [])
                if subprocess.run(command).returncode != 0:
                    status = 1
                if os.path.exists(part):
                    with open(part, encoding="utf-8") as handle:
                        combined["workloads"].setdefault(name, {})[
                            "traced" if trace else "untraced"
                        ] = json.load(handle)
    finally:
        shutil.rmtree(parts, ignore_errors=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(combined, handle, indent=1, sort_keys=True)
    print(f"wrote {out}" + ("" if status == 0 else "  (FAILURES above)"))
    return status


# -- compare -----------------------------------------------------------------

#: Per-layer metrics that are counts of simulated or durable events and
#: so must be equal between two runs of the same seed.
EXACT = (
    "journal.fsyncs_per_pass", "obs.spans_per_pass", "fleet.safeguard_trips",
    "fleet.slo_violations", "fleet.actions",
)


def compare(path_a: str, path_b: str) -> int:
    """B against A: per workload x end-to-end metric, both values, the
    relative worsening, the bound, and a verdict.

    ``unresolved``: the within-run noise of either side is wider than
    the bound, so the pair cannot show the metric unchanged.
    """
    catalog = load_catalog()
    with open(path_a, encoding="utf-8") as handle:
        side_a = json.load(handle)["workloads"]
    with open(path_b, encoding="utf-8") as handle:
        side_b = json.load(handle)["workloads"]
    bad = 0
    for name in WORKLOAD_NAMES:
        if name not in side_a or name not in side_b:
            continue
        print(f"== {name} ==")
        a, b = side_a[name]["untraced"], side_b[name]["untraced"]
        for entry in catalog["end_to_end"]:
            metric, bound = entry["name"], entry["bound"]
            va, vb = a["end_to_end"][metric], b["end_to_end"][metric]
            worse = (vb["value"] - va["value"]) / va["value"]
            if entry["better"] == "higher":
                worse = -worse
            known = [v["noise"] for v in (va, vb) if v["noise"] is not None]
            spread = max(known, default=0.0)
            verdict = "ok"
            if spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict, bad = "regressed", bad + 1
            shown = f"{spread:.1%}" if known else "n/a"
            print(f"  {metric:<18} {va['value']:>12.6g} {vb['value']:>12.6g} "
                  f"{entry['unit']:<8} {worse:+8.1%} worse  "
                  f"bound {bound:.0%}  noise {shown}  {verdict}")
        for phase in ("cold", "warm"):  # medians and tails: no verdict
            print(f"  {phase + ' samples':<18} " + "   vs   ".join(
                ", ".join(f"{key} {value:.6g}" for key, value
                          in sorted(side["samples"][phase].items()))
                for side in (a, b)
            ))
        exact = [("digest", a["digest"], b["digest"])]
        if "traced" in side_a[name] and "traced" in side_b[name]:
            ta = side_a[name]["traced"]["per_layer"]
            tb = side_b[name]["traced"]["per_layer"]
            exact += [(metric, ta[metric], tb[metric]) for metric in EXACT]
        for metric, va, vb in exact:
            same = va == vb
            bad += not same
            print(f"  {metric:<26} {'equal' if same else 'DIFFERS'}"
                  + ("" if same else f"  {va} != {vb}"))
        for side in (a, b):
            if side["failed"] or side["errors"]:
                bad += 1
                print(f"  failed_share {side['failed_share']:.6g} != 0")
    print("compare: " + ("ok" if not bad else f"{bad} problem(s)"))
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long one run measures (default 20)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer metrics from the instrumented run")
    parser.add_argument("--out", metavar="FILE",
                        help="detailed JSON (default with no --workload: "
                             "bench-stack-<seed>.json)")
    parser.add_argument("--root", metavar="DIR", default=".bench-stack",
                        help="scratch directory; every pass works in a "
                             "fresh directory below it (default: "
                             ".bench-stack in the working directory)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes, one block: the test size")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    # No chaos or kill-point setting may leak in from the caller's
    # environment, and the run must never touch ./.repro-cache: the
    # default cache directory is pointed below --root as well.
    for name in ("REPRO_CHAOS_PLAN", "REPRO_JOURNAL_KILL_AFTER"):
        os.environ.pop(name, None)
    sys.path.insert(0, SRC)
    os.makedirs(args.root, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(
        os.path.abspath(args.root), "default-cache"
    )
    if args.smoke:
        args.seconds = 0.0
    if args.setup_probe:
        return setup_probe(args)
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
