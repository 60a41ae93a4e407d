"""`serve` / `submit` CLI lifecycle: real subprocess, SIGTERM drain.

This is the test the CI smoke job mirrors: start a server process on an
ephemeral port, submit over the wire with the `submit` subcommand,
SIGTERM the server, and assert it drains within its deadline leaving no
orphaned worker processes behind.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _read_startup(proc, deadline=60.0):
    """Parse the bound port and worker pids from the server's stderr."""
    port, pids = None, None
    end = time.time() + deadline
    while time.time() < end and (port is None or pids is None):
        line = proc.stderr.readline()
        if not line:
            raise AssertionError(
                f"server exited during startup (rc={proc.poll()})"
            )
        if "listening on" in line:
            port = int(line.split(":")[-1].split()[0].rstrip(")"))
        elif "worker pids:" in line:
            pids = [int(p) for p in line.split("worker pids:")[1].split()]
    assert port is not None and pids is not None, "startup lines not seen"
    return port, pids


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


@pytest.fixture
def server(tmp_path):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.harness", "serve",
            "--port", "0", "--workers", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--drain-timeout", "30",
        ],
        env=_env(),
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        port, pids = _read_startup(proc)
        yield proc, port, pids
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.stderr.close()
        proc.wait(timeout=10)


def test_serve_submit_sigterm_drain_no_orphans(server, tmp_path):
    proc, port, worker_pids = server
    assert worker_pids and all(_alive(pid) for pid in worker_pids)

    # Submit one two-cell job through the CLI client (--json output).
    submit = subprocess.run(
        [
            sys.executable, "-m", "repro.harness", "submit",
            "--workloads", "gzip", "--configs", "IC,TC",
            "--port", str(port), "--json",
        ],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert submit.returncode == 0, submit.stderr
    lines = [json.loads(line) for line in submit.stdout.splitlines() if line]
    assert len(lines) == 2
    assert {(cell["workload"], cell["config"]) for cell in lines} == {
        ("gzip", "IC"), ("gzip", "TC"),
    }
    assert all(cell["entry"]["cycles"] > 0 for cell in lines)
    assert "job job-1 done: 2 cells" in submit.stderr

    # Warm resubmission: every cell served from the artifact store.
    resubmit = subprocess.run(
        [
            sys.executable, "-m", "repro.harness", "submit",
            "--workloads", "gzip", "--configs", "IC,TC",
            "--port", str(port), "--json",
        ],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert resubmit.returncode == 0, resubmit.stderr
    warm_lines = [json.loads(s) for s in resubmit.stdout.splitlines() if s]
    assert all(cell["cached"] for cell in warm_lines)
    # Byte-identical entries between the cold and warm runs.
    assert sorted(
        json.dumps(c["entry"], sort_keys=True) for c in warm_lines
    ) == sorted(json.dumps(c["entry"], sort_keys=True) for c in lines)

    # Drain: SIGTERM must exit cleanly within 10s, reaping every worker.
    proc.send_signal(signal.SIGTERM)
    start = time.monotonic()
    rc = proc.wait(timeout=10)
    elapsed = time.monotonic() - start
    assert rc == 0, f"serve exited {rc}"
    assert elapsed <= 10
    for pid in worker_pids:
        assert not _alive(pid), f"worker {pid} orphaned after drain"


def _running(pid: int) -> bool:
    """Alive and not a zombie awaiting a reaper (the node that would
    reap a dead worker is itself gone in the kill test)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    except OSError:
        return _alive(pid)
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_sigkilled_node_takes_its_workers_with_it(server):
    proc, _port, worker_pids = server
    assert worker_pids and all(_running(pid) for pid in worker_pids)
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=10)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and any(map(_running, worker_pids)):
        time.sleep(0.1)
    survivors = [pid for pid in worker_pids if _running(pid)]
    for pid in survivors:  # do not leak them into the rest of the run
        os.kill(pid, signal.SIGKILL)
    assert not survivors, f"workers {survivors} outlived their killed node"


def test_submit_against_dead_port_fails_cleanly():
    result = subprocess.run(
        [
            sys.executable, "-m", "repro.harness", "submit",
            "--workloads", "gzip", "--configs", "IC",
            "--port", "1",  # nothing listens there
        ],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 1
    assert "unreachable" in result.stderr
