"""End-to-end: `repro-tam serve` as a real subprocess, driven by the
Python client — the same flow the CI service-smoke job runs."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine.batch import BatchJob, BatchRunner
from repro.service.client import ServiceClient

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def served_port(tmp_path):
    """A `repro-tam serve` subprocess; yields its bound port."""
    port_file = tmp_path / "port"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--jobs", "1",
            "--port-file", str(port_file),
            "--cache-dir", str(tmp_path / "tables"),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        deadline = time.monotonic() + 30
        while not port_file.exists():
            if proc.poll() is not None:
                pytest.fail(
                    f"serve exited early:\n{proc.stdout.read()}"
                )
            if time.monotonic() > deadline:
                pytest.fail("serve never published its port")
            time.sleep(0.05)
        yield int(port_file.read_text().strip())
    finally:
        if proc.poll() is None:
            proc.terminate()
        proc.wait(timeout=10)


def test_serve_submit_shutdown_round_trip(served_port, d695):
    with ServiceClient(port=served_port, timeout=300) as client:
        assert client.ping()["pong"]

        job = client.submit(["d695"], widths=[8, 12], num_tams=2)
        record = client.wait(job, timeout=300)
        assert record["status"] == "done"
        result = client.result(job)
        assert result["failures"] == []

        # The service's answer equals the in-process engine's.
        reference = BatchRunner(max_workers=1).run([
            BatchJob(d695, 8, 2), BatchJob(d695, 12, 2),
        ])
        by_width = {p["total_width"]: p for p in result["points"]}
        for point in reference:
            assert by_width[point.total_width]["testing_time"] \
                == point.testing_time

        # Identical resubmission: answered from memo, marked cached.
        again = client.submit(["d695"], widths=[8, 12], num_tams=2)
        status = client.status(again)
        assert status["cached"] and status["status"] == "done"

        client.shutdown()



#: Runs `repro-tam serve --port-file` in a child process that audits
#: every write-mode open of the target and every rename onto it, and
#: stops the server as soon as it would start serving.  Prints the
#: audited events as the last line of JSON.
PORT_FILE_PROBE = """
import json, os, sys, threading
from pathlib import Path
from repro.cli import main
from repro.service.ipc import IPCServer

target = sys.argv[1]
events = []

def audit(event, args):
    if event == "open":
        path, _, flags = args
        if isinstance(path, (str, os.PathLike)) \\
                and os.fspath(path) == target \\
                and flags & (os.O_WRONLY | os.O_RDWR):
            events.append(["opened for writing", None])
    elif event == "os.rename" and os.fspath(args[1]) == target:
        events.append(["renamed into place", Path(args[0]).read_text()])

real_serve = IPCServer.serve_forever

def serve_then_stop(server):
    thread = threading.Thread(target=real_serve, args=(server,))
    thread.start()
    server.stop()
    thread.join()

IPCServer.serve_forever = serve_then_stop
sys.addaudithook(audit)
main(["serve", "--port", "0", "--jobs", "1", "--port-file", target])
print(json.dumps(events))
"""


def test_port_file_only_ever_holds_the_whole_port_line(tmp_path):
    """`serve --port-file` never writes the target in place.  The port
    line goes to a temporary file that is then renamed over the
    target, so a reader that sees the file always reads the whole
    line; a reader polling for the file used to read it empty."""
    target = tmp_path / "port"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    probe = subprocess.run(
        [sys.executable, "-c", PORT_FILE_PROBE, str(target)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    lines = probe.stdout.splitlines()
    port = lines[0].rsplit(":", 1)[1]
    assert json.loads(lines[-1]) == [["renamed into place", f"{port}\n"]]
    assert target.read_text() == f"{port}\n"
    assert [path.name for path in tmp_path.iterdir()] == ["port"]
