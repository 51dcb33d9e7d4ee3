"""Crash durability: a SIGKILL'd server loses no accepted jobs.

The acceptance scenario for the job journal: submit a grid, SIGKILL
the server process mid-run, restart it on the same cache directory,
and assert the journal replays the lost job to completion with a
result payload byte-identical to an uninterrupted run.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import SPEC_SCHEMA_VERSION, GridSpec
from repro.service.client import ServiceClient
from repro.service.journal import JOURNAL_NAME, JobJournal, JournalEntry
from repro.service.server import ExplorationServer

SRC = str(Path(__file__).resolve().parents[2] / "src")

SPEC = GridSpec.from_axes(["d695"], (8, 12), num_tams=2)


def start_server(tmp_path, cache_dir, tag):
    """Launch `repro-tam serve` on ``cache_dir``; return (proc, port)."""
    port_file = tmp_path / f"port-{tag}"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--jobs", "1",
            "--port-file", str(port_file),
            "--cache-dir", str(cache_dir),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 30
    while not port_file.exists():
        if proc.poll() is not None:
            pytest.fail(f"serve exited early:\n{proc.stdout.read()}")
        if time.monotonic() > deadline:
            proc.kill()
            pytest.fail("serve never published its port")
        time.sleep(0.05)
    return proc, int(port_file.read_text().strip())


def canonical(payload):
    """The comparable grid content of a ``result`` response."""
    return json.dumps(
        {"points": payload["points"], "failures": payload["failures"]},
        sort_keys=True,
    )


def test_sigkilled_server_replays_the_journal(tmp_path):
    # The ground truth: the same grid run to completion, undisturbed.
    with ExplorationServer(max_workers=1) as baseline_server:
        record = baseline_server.submit(SPEC)
        done = baseline_server.wait(record.job_id, timeout=300)
        assert done.status == "done"
        baseline = canonical(
            baseline_server.result_payload(record.job_id)
        )

    cache_dir = tmp_path / "cache"
    proc, port = start_server(tmp_path, cache_dir, "first")
    try:
        with ServiceClient(port=port, timeout=30) as client:
            job = client.submit_grid(SPEC)
            assert job  # accepted — and therefore journaled
    finally:
        # SIGKILL, not terminate: no atexit handlers, no graceful
        # shutdown — the crash the journal exists for.
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

    # The accepted job is on disk even though the server never got
    # to finish (or possibly even start) it.
    journal = cache_dir / JOURNAL_NAME
    assert journal.exists()
    assert any(
        json.loads(line)["kind"] == "submitted"
        for line in journal.read_text().splitlines() if line
    )

    reborn, port = start_server(tmp_path, cache_dir, "second")
    try:
        with ServiceClient(port=port, timeout=300) as client:
            health = client.ping()["health"]
            assert health["journal"]
            assert health["journal_replays"] >= 1
            # Replay resubmits under a fresh id; the reborn server's
            # counter starts at zero, so the replayed job is first.
            record = client.wait("job-0001", timeout=300)
            assert record["status"] == "done"
            recovered = canonical(client.result("job-0001"))
            assert recovered == baseline
    finally:
        if reborn.poll() is None:
            reborn.terminate()
        reborn.wait(timeout=30)


def test_clean_restart_replays_nothing(tmp_path):
    """A journaled job that finished must not re-run on restart."""
    cache_dir = tmp_path / "cache"
    with ExplorationServer(
        max_workers=1, cache_dir=cache_dir
    ) as server:
        record = server.submit(SPEC)
        assert server.wait(record.job_id, timeout=300).status == "done"
    with ExplorationServer(
        max_workers=1, cache_dir=cache_dir
    ) as reborn:
        health = reborn.info()["health"]
        assert health["journal_replays"] == 0
        # ... and the grid memo still answers the grid instantly.
        assert reborn.submit(SPEC).cached


def test_old_schema_journal_entry_is_lost_and_degrades_health(tmp_path):
    """A restart over a journal written by an older build: the entry
    whose spec schema this build no longer reads is journaled as
    lost and flips health to degraded; the current entry still
    replays to completion."""
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    current = SPEC.to_dict()
    old = json.loads(json.dumps(current))
    old["schema"] = SPEC_SCHEMA_VERSION - 1
    for point in old["points"]:
        point.update(
            schema=SPEC_SCHEMA_VERSION - 1, prune=None,
            sweep_engine="kernel",
        )
    journal = JobJournal(cache_dir / JOURNAL_NAME)
    journal.record_submitted(JournalEntry(
        job_id="job-0041", key="old-schema-key", spec=old,
    ))
    journal.record_submitted(JournalEntry(
        job_id="job-0042", key=SPEC.canonical_key(), spec=current,
    ))
    journal.close()
    with ExplorationServer(
        max_workers=1, cache_dir=cache_dir
    ) as reborn:
        health = reborn.info()["health"]
        assert health["journal_unreplayable"] == 1
        assert health["journal_replays"] == 1
        assert health["status"] == "degraded"
        # The reborn server numbers its jobs from one: job-0042
        # replayed as job-0001.
        assert reborn.wait("job-0001", timeout=300).status == "done"
    lines = [
        json.loads(line)
        for line in (cache_dir / JOURNAL_NAME).read_text().splitlines()
    ]
    assert {
        "kind": "terminal", "job": "job-0041", "status": "lost",
    } in lines


def test_journal_line_with_top_level_hints_replays_from_its_spec(
    tmp_path,
):
    """A ``submitted`` line in the older format, with ``shard`` and
    ``point_timeout`` beside the spec, still replays; the hints the
    replayed job runs with come from the spec's ``runner``."""
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    spec = GridSpec.from_axes(
        ["d695"], (8,), num_tams=2,
        runner={"shard": 0, "point_timeout": 300.0},
    )
    line = {
        "kind": "submitted", "job": "job-0007",
        "key": spec.canonical_key(), "spec": spec.to_dict(),
        "shard": "auto", "point_timeout": 5.0,
    }
    (cache_dir / JOURNAL_NAME).write_text(
        json.dumps(line, sort_keys=True) + "\n"
    )
    with ExplorationServer(
        max_workers=1, cache_dir=cache_dir
    ) as reborn:
        health = reborn.info()["health"]
        assert health["journal_replays"] == 1
        assert health["journal_unreplayable"] == 0
        record = reborn.record("job-0001")
        assert (record.shard, record.point_timeout) == (0, 300.0)
        assert reborn.wait("job-0001", timeout=300).status == "done"


def test_spec_less_journal_line_is_lost_and_degrades_health(tmp_path):
    """An older build journaled raw-job submits with ``spec: null``;
    such a line replays as ``lost``, as an unreadable spec does."""
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    journal = JobJournal(cache_dir / JOURNAL_NAME)
    journal.record_submitted(JournalEntry(
        job_id="job-0003", key="raw-job-key", spec=None,
    ))
    journal.close()
    with ExplorationServer(
        max_workers=1, cache_dir=cache_dir
    ) as reborn:
        health = reborn.info()["health"]
        assert health["journal_unreplayable"] == 1
        assert health["journal_replays"] == 0
        assert health["status"] == "degraded"
        assert reborn.info()["jobs"] == 0
    lines = [
        json.loads(line)
        for line in (cache_dir / JOURNAL_NAME).read_text().splitlines()
    ]
    assert {
        "kind": "terminal", "job": "job-0003", "status": "lost",
    } in lines
