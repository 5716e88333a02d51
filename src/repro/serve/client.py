"""A blocking stdlib client for the serve control plane.

Used by the ``repro serve submit|status|...`` subcommands, the chaos
harness, and tests.  One request-reply per connection for the simple
verbs; ``watch`` holds its connection open and yields events until the
job goes terminal (or the server dies — surfaced as a
:class:`ServeUnavailable`, which is *expected* under the kill-server
chaos harness and handled by reconnecting to the successor).
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, Iterator, Optional

from repro.serve import protocol
from repro.serve.jobs import TERMINAL_STATUSES

__all__ = ["ServeClient", "ServeUnavailable", "wait_for_server"]

#: Seconds between :meth:`ServeClient.wait`'s ``status`` polls.
WAIT_POLL_S = 0.2


class ServeUnavailable(ConnectionError):
    """No server behind the socket (not listening, or died mid-reply)."""


def wait_for_server(
    socket_path: str, timeout: float = 10.0
) -> None:
    """Block until a server answers ``ping`` on the socket.

    Raises:
        ServeUnavailable: nothing answered within ``timeout``.
    """
    deadline = time.monotonic() + timeout
    last: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            ServeClient(socket_path, timeout=1.0).ping()
            return
        except (ServeUnavailable, OSError) as exc:
            last = exc
            time.sleep(0.05)
    raise ServeUnavailable(
        f"no server on {socket_path} after {timeout:.1f}s: {last}"
    )


class ServeClient:
    """Thin per-request client: connect, send one line, read replies."""

    def __init__(self, socket_path: str, timeout: float = 30.0) -> None:
        self.socket_path = socket_path
        self.timeout = timeout

    # ------------------------------------------------------------------
    # transport

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.socket_path)
        except OSError as exc:
            sock.close()
            raise ServeUnavailable(
                f"cannot connect to {self.socket_path}: {exc}"
            ) from exc
        return sock

    @staticmethod
    def _read_line(handle: Any) -> Dict[str, Any]:
        line = handle.readline(protocol.MAX_LINE + 1)
        if not line:
            raise ServeUnavailable("server closed the connection")
        return protocol.decode(line)

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One verb, one reply."""
        sock = self._connect()
        try:
            sock.sendall(protocol.encode(message))
            with sock.makefile("rb") as handle:
                return self._read_line(handle)
        except socket.timeout as exc:
            raise ServeUnavailable(
                f"server on {self.socket_path} timed out"
            ) from exc
        finally:
            sock.close()

    # ------------------------------------------------------------------
    # verbs

    def ping(self) -> Dict[str, Any]:
        return self.request({"verb": "ping"})

    def submit(
        self,
        kind: str,
        config: Dict[str, Any],
        workers: Optional[int] = None,
        deadline_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        message: Dict[str, Any] = {
            "verb": "submit", "kind": kind, "config": config,
        }
        if workers is not None:
            message["workers"] = workers
        if deadline_s is not None:
            message["deadline_s"] = deadline_s
        return self.request(message)

    def status(self, job_id: Optional[str] = None) -> Dict[str, Any]:
        message: Dict[str, Any] = {"verb": "status"}
        if job_id is not None:
            message["job_id"] = job_id
        return self.request(message)

    def metrics(self, fmt: Optional[str] = None) -> Dict[str, Any]:
        message: Dict[str, Any] = {"verb": "metrics"}
        if fmt is not None:
            message["format"] = fmt
        return self.request(message)

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self.request({"verb": "cancel", "job_id": job_id})

    def drain(self) -> Dict[str, Any]:
        return self.request({"verb": "drain"})

    def watch(
        self, job_id: str, since: int = 0
    ) -> Iterator[Dict[str, Any]]:
        """Yield the job's events until it reaches a terminal status.

        Raises:
            ServeUnavailable: the server died mid-stream (the last
                yielded event tells the caller where to resume from).
        """
        sock = self._connect()
        try:
            sock.sendall(protocol.encode(
                {"verb": "watch", "job_id": job_id, "since": since}
            ))
            with sock.makefile("rb") as handle:
                head = self._read_line(handle)
                if not head.get("ok"):
                    raise ValueError(
                        head.get("error", "watch rejected")
                    )
                while True:
                    message = self._read_line(handle)
                    yield message
                    if message.get("event") in TERMINAL_STATUSES:
                        return
        except socket.timeout as exc:
            raise ServeUnavailable(
                f"watch on {self.socket_path} timed out"
            ) from exc
        finally:
            sock.close()

    def wait(self, job_id: str, timeout: float = 300.0) -> Dict[str, Any]:
        """Poll ``status`` until the job is terminal; returns its view.

        Polling (rather than ``watch``) survives server restarts — the
        successor knows the adopted run under a *new* job id, so the
        harness matches on ``run_id`` via :meth:`find_by_run`.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            reply = self.status(job_id)
            if not reply.get("ok"):
                raise ValueError(reply.get("error", "status failed"))
            job = reply["job"]
            if job["status"] in TERMINAL_STATUSES:
                return job
            time.sleep(WAIT_POLL_S)
        raise TimeoutError(
            f"job {job_id} not terminal after {timeout:.1f}s"
        )

    def find_by_run(self, run_id: str) -> Optional[Dict[str, Any]]:
        """The newest job view for ``run_id``, if the server knows one."""
        reply = self.status()
        if not reply.get("ok"):
            return None
        matches = [
            job for job in reply.get("jobs", [])
            if job.get("run_id") == run_id
        ]
        return matches[-1] if matches else None
