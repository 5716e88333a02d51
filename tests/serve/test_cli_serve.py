"""``repro serve`` / ``repro chaos serve`` argument surface, in-process."""

import os
import tempfile

import pytest

from repro.cli import main


def _no_server_socket():
    return os.path.join(
        tempfile.mkdtemp(prefix="repro-serve-"), "none.sock"
    )


def test_serve_ping_without_server_is_unavailable(capsys):
    sock = _no_server_socket()
    assert main(["serve", "ping", "--socket", sock]) == 69
    assert "cannot connect" in capsys.readouterr().out


def test_serve_status_without_server_is_unavailable(capsys):
    sock = _no_server_socket()
    assert main(["serve", "status", "--socket", sock]) == 69


def test_serve_submit_without_server_is_unavailable(capsys):
    sock = _no_server_socket()
    assert main(
        ["serve", "submit", "fleet", "--nodes", "2", "--seconds", "10",
         "--socket", sock]
    ) == 69


def test_serve_submit_has_no_no_watch_flag(capsys):
    """``submit`` always watches its job: ``--no-watch`` is a usage
    error, not a silently accepted option."""
    with pytest.raises(SystemExit) as exc:
        main(["serve", "submit", "fleet", "--no-watch",
              "--socket", _no_server_socket()])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-watch" in capsys.readouterr().err


def test_chaos_serve_requires_kill_server():
    with pytest.raises(SystemExit, match="--kill-server"):
        main(["chaos", "serve"])


def test_chaos_serve_sweep_requires_spec():
    with pytest.raises(SystemExit, match="--spec"):
        main(["chaos", "serve", "--kill-server", "3", "--job", "sweep"])


def test_kill_server_flag_rejected_for_other_targets():
    with pytest.raises(SystemExit, match="only meaningful"):
        main(["chaos", "fleet", "--kill-server", "3"])


def test_serve_start_rejects_bad_queue_limit(tmp_path):
    with pytest.raises(ValueError, match="queue_limit"):
        from repro.serve.server import ServeServer

        ServeServer(cache_root=str(tmp_path), queue_limit=0)


def test_serve_start_has_no_client_timeout(capsys):
    # --timeout is the client I/O timeout; the server never reads one.
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "start", "--timeout", "5",
              "--socket", _no_server_socket()])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --timeout" in capsys.readouterr().err


def test_only_serve_start_loads_asyncio():
    """The CLI, the serve client surface and the launch ladder import
    neither ``asyncio`` nor ``ssl``: only the server needs them, so a
    process that submits, resumes or benchmarks does not pay for them."""
    import subprocess
    import sys

    script = (
        "import sys\n"
        "import repro.cli, repro.serve, repro.journal.pipelines\n"
        "print(sorted({'asyncio', 'ssl'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        capture_output=True, text=True, timeout=60,
    ).stdout
    assert out.strip() == "[]"
