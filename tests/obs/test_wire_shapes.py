"""The counters' wire shapes are a fixed point of how they are stored.

``wire_shapes.json`` records the key tree (leaf type names in place of
values) of every place the stack's counters leave the process: the
serve ``metrics`` reply and its Prometheus exposition, the result
cache's ``snapshot()`` and ``[cache:]`` line, the shared pool's
counters.  How the counters are held may change; what a client or a
scraper sees may not.  Regenerate with ``PYTHONPATH=src python
tests/obs/test_wire_shapes.py`` only for an intended wire change.
"""

import asyncio
import json
import os
import tempfile
import threading

from repro.cache.store import CacheStats
from repro.resilience.pool import shared_pool_counters
from repro.serve.client import ServeClient, wait_for_server
from repro.serve.server import ServeServer

SNAPSHOT = os.path.join(os.path.dirname(__file__), "wire_shapes.json")

JOB = {"artifacts": ["table1", "table2"], "scale": 1.0}


def key_tree(value):
    """``value`` with every leaf replaced by its type name."""
    if isinstance(value, dict):
        return {str(key): key_tree(value[key]) for key in sorted(value)}
    return type(value).__name__


def _serve_one_job(cache_root):
    """Run one job through a real in-thread server (AF_UNIX paths are
    length-limited, so the socket lives under a short temp dir)."""
    with tempfile.TemporaryDirectory(prefix="repro-wire-") as scratch:
        socket_path = os.path.join(scratch, "serve.sock")
        server = ServeServer(cache_root=cache_root, socket_path=socket_path)
        thread = threading.Thread(
            target=lambda: asyncio.run(server.run()), daemon=True
        )
        thread.start()
        try:
            wait_for_server(socket_path, timeout=15.0)
            client = ServeClient(socket_path, timeout=30.0)
            reply = client.submit("reproduce", JOB, workers=1)
            assert reply["ok"], reply
            client.wait(reply["job_id"])
            metrics = client.metrics()["metrics"]
            prometheus = client.metrics(fmt="prometheus")["text"]
            client.drain()
        finally:
            thread.join(30.0)
    return metrics, prometheus


def observed_shapes(cache_root):
    metrics, prometheus = _serve_one_job(cache_root)
    return {
        "serve_metrics": key_tree(metrics),
        "serve_prometheus_types": sorted(
            line for line in prometheus.splitlines()
            if line.startswith("# TYPE ")
        ),
        "cache_stats": key_tree(CacheStats().snapshot()),
        "cache_line": CacheStats().render(),
        "shared_pool_counters": key_tree(shared_pool_counters()),
    }


def test_counter_wire_shapes_match_the_recorded_snapshot(tmp_path):
    with open(SNAPSHOT, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    assert observed_shapes(str(tmp_path / "cache")) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        shapes = observed_shapes(root)
    with open(SNAPSHOT, "w", encoding="utf-8") as handle:
        json.dump(shapes, handle, indent=1, sort_keys=True)
        handle.write("\n")
