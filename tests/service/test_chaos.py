"""Chaos suite: seeded fault plans never change computed results.

Every test here runs the same workload twice — once clean, once under
a ``REPRO_FAULTS`` plan — and asserts the results are bit-identical.
Faults may change *how* the answer is produced (pools rebuilt,
incumbent boards refused, streams reconnected, store entries rebuilt),
never *what* is produced.

``REPRO_CHAOS_SEED`` (CI's chaos-smoke matrix) shifts which grid
point each fault lands on, so repeated runs exercise different
crash/stall sites without giving up determinism within a run.
"""

import json
import os

import pytest

from repro.api import GridSpec
from repro.engine.batch import BatchJob, BatchRunner
from repro.engine.faults import FAULTS_ENV
from repro.service.client import ServiceClient
from repro.service.ipc import IPCServer
from repro.service.server import ExplorationServer

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

WIDTHS = (4, 5, 6, 7)


def grid_jobs(soc):
    return [BatchJob(soc, width, 2) for width in WIDTHS]


def sharded_jobs(soc):
    """One job the runner splits into shards (``shard=4``)."""
    return [BatchJob(soc, 10, (1, 2, 3))]


@pytest.fixture
def no_ambient_faults(monkeypatch):
    """A clean slate: no plan leaks in from the invoking shell."""
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    return monkeypatch


def plan_texts(tmp_path):
    """The seeded plans the engine chaos test sweeps.

    Each plan gets its own one-shot token directory — tokens claimed
    by one plan must not disarm the next.
    """
    crash_at = SEED % len(WIDTHS)
    slow_at = (SEED + 1) % len(WIDTHS)
    return {
        "crash": (
            f"seed={SEED},state={tmp_path / 'tok-crash'},"
            f"crash@{crash_at}"
        ),
        "shm": f"seed={SEED},shm@{crash_at},shm@{slow_at}",
        "slow": f"seed={SEED},slow@{slow_at}=0.05",
        "combo": (
            f"seed={SEED},state={tmp_path / 'tok-combo'},"
            f"crash@{crash_at},shm@{slow_at},slow@{slow_at}=0.05"
        ),
    }


class TestEngineChaos:
    def test_every_plan_is_bit_identical(
        self, tiny_soc, tmp_path, no_ambient_faults
    ):
        healthy = BatchRunner(max_workers=2).run(grid_jobs(tiny_soc))
        sharded_healthy = BatchRunner(max_workers=1).run(
            sharded_jobs(tiny_soc)
        )
        for name, text in plan_texts(tmp_path).items():
            no_ambient_faults.setenv(FAULTS_ENV, text)
            runner = BatchRunner(max_workers=2)
            chaotic = runner.run(grid_jobs(tiny_soc))
            assert chaotic == healthy, f"plan {name!r} changed results"
            if "crash@" in text:
                assert runner.pool_restarts >= 1
            if name == "shm":
                # Whole-point jobs have no incumbent board to refuse;
                # the shm hook fires in the shards of a sharded job.
                runner = BatchRunner(max_workers=2, shard=4)
                chaotic = runner.run(sharded_jobs(tiny_soc))
                assert chaotic == sharded_healthy
                assert runner.jobs_sharded == 1
                injected = runner.metrics.counter("faults.injected")
                assert injected.value >= 1

    def test_inline_mode_survives_the_plans_too(
        self, tiny_soc, tmp_path, no_ambient_faults
    ):
        # No pool to crash and no board to refuse inline — but the
        # slow directive still hits its hook, and none may change
        # results.
        healthy = BatchRunner(max_workers=1).run(grid_jobs(tiny_soc))
        state = tmp_path / "tokens-inline"
        no_ambient_faults.setenv(
            FAULTS_ENV,
            f"seed={SEED},state={state},shm@0,slow@1=0.02",
        )
        chaotic = BatchRunner(max_workers=1).run(grid_jobs(tiny_soc))
        assert chaotic == healthy


class TestStoreChaos:
    def test_corrupt_write_is_quarantined_then_rebuilt(
        self, tiny_soc, tmp_path, no_ambient_faults
    ):
        # One width only: each core's table is saved exactly once, so
        # the truncated first record is not healed by a later, wider
        # write-back within the same (corrupting) run.
        jobs = [BatchJob(tiny_soc, 6, 2)]
        healthy = BatchRunner(max_workers=1).run(jobs)
        cache = tmp_path / "tables"
        no_ambient_faults.setenv(
            FAULTS_ENV, f"state={tmp_path / 'tokens'},corrupt",
        )
        # The corrupting run: one store record lands truncated.
        assert BatchRunner(
            max_workers=1, cache_dir=cache
        ).run(jobs) == healthy
        no_ambient_faults.delenv(FAULTS_ENV)
        # The warm rerun meets the truncated record: quarantined to
        # *.bad, rebuilt, and the answers never waver.
        assert BatchRunner(
            max_workers=1, cache_dir=cache
        ).run(jobs) == healthy
        assert list(cache.glob("*.bad"))
        # A third run is fully warm again (the rebuild re-persisted).
        assert BatchRunner(
            max_workers=1, cache_dir=cache
        ).run(jobs) == healthy


class TestServiceChaos:
    def test_dropped_event_streams_still_deliver_every_event(
        self, no_ambient_faults
    ):
        spec = GridSpec.from_axes(["d695"], (8, 12, 16), num_tams=2)
        # Ground truth from an undisturbed service.
        with ExplorationServer(max_workers=1) as exploration:
            record = exploration.submit(spec)
            exploration.wait(record.job_id, timeout=300)
            baseline = json.dumps(
                exploration.result_payload(record.job_id),
                sort_keys=True,
            )
        # Now every events stream is severed after one line; the
        # client's reconnect resumes from its cursor each time.
        no_ambient_faults.setenv(FAULTS_ENV, f"seed={SEED},ipc@1")
        with ExplorationServer(max_workers=1) as exploration:
            server = IPCServer(exploration, port=0).start()
            try:
                host, port = server.address
                with ServiceClient(
                    host=host, port=port, timeout=120
                ) as client:
                    job = client.submit_grid(spec)
                    events = list(client.events(
                        job, reconnect=True, timeout=120,
                    ))
                no_ambient_faults.delenv(FAULTS_ENV)
                with ServiceClient(
                    host=host, port=port, timeout=120
                ) as client:
                    payload = client.result(job)
            finally:
                server.stop()
        assert [event["index"] for event in events] == [0, 1, 2]
        chaotic = json.dumps(
            {"points": payload["points"],
             "failures": payload["failures"]},
            sort_keys=True,
        )
        baseline_doc = json.loads(baseline)
        assert chaotic == json.dumps(
            {"points": baseline_doc["points"],
             "failures": baseline_doc["failures"]},
            sort_keys=True,
        )
        # The injected drops are visible in the server's health block.
        faults = exploration.info()["health"]["faults_injected"]
        assert faults >= 1
