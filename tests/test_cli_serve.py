"""`repro serve` lifecycle as a real subprocess: signals and drain.

The graceful-shutdown contract can only be pinned end to end from
outside the process: SIGTERM (or Ctrl-C) must answer every in-flight
request before exiting 0, and only a *second* signal may abandon the
drain with a non-zero exit.  The forced-exit test slows the worker
down through the ``REPRO_FAULTS`` environment profile, which doubles
as coverage for env-based arming in a fresh interpreter.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.graph import UncertainGraph, write_edge_list

SRC = str(Path(__file__).resolve().parents[1] / "src")

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGTERM") or os.name != "posix",
    reason="POSIX signal delivery required",
)


@pytest.fixture
def edge_file(tmp_path):
    graph = UncertainGraph.from_edges(
        [(0, 1, 0.8), (1, 2, 0.5), (0, 2, 0.3), (2, 3, 0.9), (1, 3, 0.4)]
    )
    path = tmp_path / "g.edges"
    write_edge_list(graph, path)
    return str(path)


def spawn_server(edge_file, *extra_args, env_extra=None):
    """Start ``repro serve`` on a free port; return (proc, port)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_FAULTS", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--file", edge_file,
         "--port", "0", *extra_args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 20
    port = None
    lines = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        lines.append(line)
        if " on http://" in line:
            port = int(line.rsplit(":", 1)[1].strip())
            break
    if port is None:
        proc.kill()
        raise AssertionError(f"server never came up:\n{''.join(lines)}")
    return proc, port


def background_request(port, samples=500):
    """Fire one /reliability request from a thread; collect the result."""
    outcome = {}

    def _call():
        body = json.dumps(
            {"source": 0, "target": 3, "samples": samples}
        ).encode()
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/reliability", data=body,
                timeout=20,
            ) as response:
                outcome["status"] = response.status
                outcome["body"] = json.loads(response.read())
        except Exception as error:
            outcome["error"] = error

    thread = threading.Thread(target=_call, daemon=True)
    thread.start()
    return thread, outcome


def test_sigterm_drains_inflight_request_and_exits_zero(edge_file):
    # A long coalescing window guarantees the request is still pending
    # (not yet flushed) when the signal lands — the drain must flush
    # and answer it, not drop it.
    proc, port = spawn_server(edge_file, "--max-wait-ms", "2000")
    try:
        thread, outcome = background_request(port)
        time.sleep(0.3)  # request is sitting in the coalescer window
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=20)
        thread.join(timeout=20)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 0
    assert "signal received: draining" in out
    assert "drained cleanly" in out
    assert outcome.get("status") == 200
    assert outcome["body"]["results"][0]["value"] > 0


def test_sigterm_with_closed_stdout_still_drains_and_exits_zero(edge_file):
    # The stdout reader goes away after the banner: the shutdown notices
    # can no longer be printed, and the drain must run all the same.
    proc, port = spawn_server(edge_file, "--max-wait-ms", "1")
    try:
        for line in proc.stdout:
            if line.startswith("coalescer:"):
                break  # the banner is complete
        proc.stdout.close()
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0


def test_sigint_with_no_traffic_exits_zero(edge_file):
    proc, port = spawn_server(edge_file, "--max-wait-ms", "1")
    try:
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=20)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 0
    assert "drained cleanly" in out


def healthz(port):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/healthz", timeout=20
    ) as response:
        return json.loads(response.read())


def test_shard_kill_mid_flight_is_invisible_to_clients(edge_file):
    """SIGKILL one worker of ``--shards 4`` mid-burst: zero failed responses.

    The latency profile in the child environment pins every batch on a
    worker for 400 ms, so the kill reliably lands while requests are in
    flight; the supervisor must replay them on healthy shards (bit-for-
    bit equal to one-off ``Session.run``) and respawn the dead worker.
    This is the end-to-end assertion behind the chaos CI shard leg.
    """
    from repro.api import ReliabilityQuery, Session, Workload
    from repro.graph import read_edge_list

    proc, port = spawn_server(
        edge_file, "--shards", "4", "--heartbeat-interval-s", "0.1",
        "--max-wait-ms", "5",
        env_extra={"REPRO_FAULTS": "serve.worker:latency_ms=400,fail=0"},
    )
    try:
        pids = [s["pid"] for s in healthz(port)["supervisor"]["shards"]
                if s["live"]]
        assert len(pids) == 4

        # Distinct seeds are distinct routing keys, so the burst spreads
        # over the pool and the killed shard holds real in-flight work.
        queries = [ReliabilityQuery(source=0, target=3, samples=400, seed=k)
                   for k in range(8)]
        outcomes = [{} for _ in queries]

        def call(query, outcome):
            body = json.dumps({
                "source": query.source, "target": query.target,
                "samples": query.samples, "seed": query.seed,
            }).encode()
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/reliability", data=body,
                    timeout=30,
                ) as response:
                    outcome["status"] = response.status
                    outcome["value"] = (
                        json.loads(response.read())["results"][0]["value"]
                    )
            except Exception as error:
                outcome["error"] = error

        threads = [threading.Thread(target=call, args=(q, o), daemon=True)
                   for q, o in zip(queries, outcomes)]
        for t in threads:
            t.start()
        time.sleep(0.3)  # batches are on the workers, asleep in the fault
        os.kill(pids[0], signal.SIGKILL)
        for t in threads:
            t.join(timeout=30)

        session = Session(read_edge_list(edge_file), seed=0)
        for query, outcome in zip(queries, outcomes):
            assert outcome.get("status") == 200, outcome
            expected = session.run(Workload([query]))[0].values[0]
            assert outcome["value"] == expected  # bit-for-bit, post-replay

        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            supervisor = healthz(port)["supervisor"]
            live = [s["pid"] for s in supervisor["shards"] if s["live"]]
            if (supervisor["deaths"] >= 1 and len(live) == 4
                    and pids[0] not in live):
                break
            time.sleep(0.1)
        else:
            raise AssertionError(f"shard never respawned: {supervisor}")
        assert supervisor["respawns"] >= 1

        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=20)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 0
    assert "drained cleanly" in out


def test_second_signal_forces_nonzero_exit(edge_file):
    # REPRO_FAULTS in the child's environment (exercising env arming in
    # a fresh interpreter) adds 3 s of worker latency, so the drain is
    # reliably still in progress when the second signal arrives.
    proc, port = spawn_server(
        edge_file, "--max-wait-ms", "1",
        env_extra={"REPRO_FAULTS": "serve.worker:latency_ms=3000,fail=0"},
    )
    try:
        thread, outcome = background_request(port)
        time.sleep(0.5)  # batch is on the worker, sleeping in the fault
        proc.send_signal(signal.SIGTERM)
        time.sleep(0.5)  # drain is blocked on the slow batch
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=20)
        thread.join(timeout=20)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 130
    assert "signal received: draining" in out
    assert "second signal: forcing exit" in out
    assert "drained cleanly" not in out
