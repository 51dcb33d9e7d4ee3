"""Job-level fault tolerance of the batch engine."""

import errno
import tempfile
import threading
import types
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import repro.engine.batch as batch
from repro.api import GridSpec
from repro.engine.batch import (
    BatchJob,
    BatchRunner,
    FailedPoint,
    split_results,
)
from repro.exceptions import ConfigurationError
from repro.service.server import ExplorationServer
from repro.service.store import GridMemo


def bad_job(soc, width=4):
    """A job that fails inside the pipeline, not at construction."""
    return BatchJob(soc, width, 2, options={"enumerator": "bogus"})


class TestRecordPolicy:
    def test_default_policy_still_raises(self, tiny_soc):
        with pytest.raises(ConfigurationError):
            BatchRunner(max_workers=1).run([bad_job(tiny_soc)])

    def test_failed_point_keeps_the_grid_alive(self, tiny_soc):
        runner = BatchRunner(max_workers=1, on_error="record")
        results = runner.run([
            BatchJob(tiny_soc, 4, 2),
            bad_job(tiny_soc, width=5),
            BatchJob(tiny_soc, 6, 2),
        ])
        assert len(results) == 3
        assert not isinstance(results[0], FailedPoint)
        assert isinstance(results[1], FailedPoint)
        assert not isinstance(results[2], FailedPoint)
        failure = results[1]
        assert failure.error_type == "ConfigurationError"
        assert "bogus" in failure.error_message
        assert failure.attempts == 1
        assert failure.total_width == 5
        assert "ConfigurationError" in failure.describe()

    def test_split_results_partitions(self, tiny_soc):
        runner = BatchRunner(max_workers=1, on_error="record")
        results = runner.run([BatchJob(tiny_soc, 4, 2),
                              bad_job(tiny_soc)])
        points, failures = split_results(results)
        assert len(points) == 1 and len(failures) == 1

    def test_pool_mode_records_failures_too(self, tiny_soc):
        runner = BatchRunner(max_workers=2, on_error="record")
        results = runner.run([
            BatchJob(tiny_soc, 4, 2),
            bad_job(tiny_soc, width=5),
            BatchJob(tiny_soc, 6, 2),
        ])
        kinds = [isinstance(r, FailedPoint) for r in results]
        assert kinds == [False, True, False]

    def test_pool_records_an_unknown_option_as_its_own_failure(
        self, tiny_soc
    ):
        runner = BatchRunner(max_workers=2, on_error="record")
        results = runner.run([
            BatchJob(tiny_soc, 4, 2),
            BatchJob(tiny_soc, 5, 2, options={"bogus_knob": 1}),
            BatchJob(tiny_soc, 6, 2),
        ])
        assert [isinstance(r, FailedPoint) for r in results] == [
            False, True, False,
        ]
        assert results[1].error_type == "ConfigurationError"
        assert "bogus_knob" in results[1].error_message

    @pytest.mark.parametrize("options", [
        pytest.param({"bogus_knob": 1}, id="unknown-option"),
        pytest.param({"polish": "no"}, id="mistyped-option"),
        pytest.param(
            {"mode": "search", "polish": "no"}, id="mistyped-search",
        ),
    ])
    def test_invalid_jobs_are_not_fanned(self, tiny_soc, options):
        # Explicit sharding and a lone job: a valid job would fan
        # its sweep or its islands.  An invalid one runs whole and
        # fails as its own point.
        bad = BatchJob(tiny_soc, 10, (1, 2), options=options)
        runner = BatchRunner(max_workers=2, on_error="record", shard=2)
        assert not runner._job_shardable(bad)
        assert not runner._job_search_mode(bad)
        [result] = runner.run([bad])
        assert isinstance(result, FailedPoint)
        assert result.error_type == "ConfigurationError"
        assert runner.jobs_sharded == 0
        assert runner.metrics.counter("engine.jobs_search_fanned").value \
            == 0

    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            BatchRunner(on_error="ignore")


class TestPersistentPool:
    def test_persistent_runner_reuses_one_pool(self, tiny_soc):
        with BatchRunner(max_workers=2, persistent=True) as runner:
            runner.run([BatchJob(tiny_soc, w, 2) for w in (4, 5)])
            runner.run([BatchJob(tiny_soc, w, 2) for w in (6, 7)])
            assert runner.pools_started == 1
        assert runner._executor is None  # closed by the context exit

    def test_ephemeral_runner_starts_a_pool_per_run(self, tiny_soc):
        runner = BatchRunner(max_workers=2)
        runner.run([BatchJob(tiny_soc, w, 2) for w in (4, 5)])
        runner.run([BatchJob(tiny_soc, w, 2) for w in (6, 7)])
        assert runner.pools_started == 2

    def test_persistent_pool_matches_inline_results(self, tiny_soc):
        jobs = [BatchJob(tiny_soc, w, 2) for w in (4, 6, 8)]
        inline = BatchRunner(max_workers=1).run(jobs)
        with BatchRunner(max_workers=2, persistent=True) as runner:
            assert runner.run(jobs) == inline


class TestBrokenPoolRecovery:
    def test_persistent_runner_survives_a_killed_worker(self, tiny_soc):
        import os
        import signal
        import time

        with BatchRunner(max_workers=2, persistent=True) as runner:
            jobs = [BatchJob(tiny_soc, w, 2) for w in (4, 5)]
            healthy = runner.run(jobs)
            # Kill a resident worker out from under the executor, and
            # wait for the executor to notice the corpse — its manager
            # thread flags breakage asynchronously, and until then a
            # surviving worker could drain a small grid successfully.
            victim = next(iter(runner._executor._processes))
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while (not runner._executor._broken
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert runner._executor._broken
            # The supervisor rebuilds the pool mid-grid and the run
            # completes with the same results as a healthy one.
            assert runner.run(jobs) == healthy
            assert runner.pool_restarts == 1
            assert runner.pools_started >= 2

    @pytest.fixture
    def pools_break_on_submit(self, monkeypatch):
        """Every pool, the rebuilt ones too, breaks on its first submit:
        a worker death that happens again after each restart."""

        class BrokenOnSubmit:
            def __init__(self, *args, **kwargs):
                pass

            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("a worker died")

            def shutdown(self, wait=True):
                pass

        monkeypatch.setattr(batch, "ProcessPoolExecutor", BrokenOnSubmit)

    @pytest.mark.parametrize("budget", [0, 1])
    def test_exhausted_pool_restarts_record_failed_points(
        self, tiny_soc, pools_break_on_submit, budget, monkeypatch
    ):
        # After the last restart the supervisor gives up: under the
        # record policy every unfinished point becomes a FailedPoint
        # counting the pools it was tried on.
        monkeypatch.setattr(BatchRunner, "POOL_RESTART_RETRIES", budget)
        jobs = [BatchJob(tiny_soc, w, 2) for w in (4, 5)]
        runner = BatchRunner(max_workers=2, on_error="record")
        results = runner.run(jobs)
        assert all(isinstance(r, FailedPoint) for r in results)
        assert [(r.job, r.error_type, r.attempts) for r in results] == [
            (job, "BrokenProcessPool", budget + 1) for job in jobs
        ]
        assert runner.pools_started == budget + 1
        # Every break counts, the last one too, which is not recovered.
        assert runner.pool_restarts == budget + 1

    @pytest.mark.parametrize("budget", [0, 1])
    def test_exhausted_pool_restarts_raise_under_default_policy(
        self, tiny_soc, pools_break_on_submit, budget, monkeypatch
    ):
        monkeypatch.setattr(BatchRunner, "POOL_RESTART_RETRIES", budget)
        runner = BatchRunner(max_workers=2)
        with pytest.raises(BrokenProcessPool):
            runner.run([BatchJob(tiny_soc, w, 2) for w in (4, 5)])
        assert runner.pools_started == budget + 1
        assert runner.pool_restarts == budget + 1

    def test_rejects_bad_supervision_knobs(self):
        # Past threading.TIMEOUT_MAX, Future.result raises
        # OverflowError mid-grid; JSON hints can carry Infinity.
        for timeout in (0, "soon", float("inf"), float("nan"), 1e12):
            with pytest.raises(ConfigurationError, match="point_timeout"):
                BatchRunner(point_timeout=timeout)

    def test_longest_waitable_point_timeout_is_accepted(self):
        assert batch.normalize_point_timeout(threading.TIMEOUT_MAX) \
            == threading.TIMEOUT_MAX


class TestPointDeadlines:
    """Per-point wall-clock deadlines, driven by a slow@ fault."""

    @pytest.fixture
    def stalled_point(self, monkeypatch):
        """Grid point 1 stalls well past the test deadlines below.

        Kept short-ish: a timed-out point is *abandoned*, not
        interrupted, so the run's closing ``pool.shutdown(wait=True)``
        still waits out the stall.
        """
        monkeypatch.setenv("REPRO_FAULTS", "slow@1=6")

    def test_timed_out_point_is_recorded(self, tiny_soc, stalled_point):
        runner = BatchRunner(max_workers=2, on_error="record")
        results = runner.run(
            [BatchJob(tiny_soc, w, 2) for w in (4, 5, 6)],
            point_timeout=1.5,
        )
        kinds = [isinstance(r, FailedPoint) for r in results]
        assert kinds == [False, True, False]
        assert results[1].error_type == "DeadlineError"
        assert runner.points_timed_out == 1

    def test_timed_out_point_raises_under_default_policy(
        self, tiny_soc, stalled_point
    ):
        from repro.exceptions import DeadlineError

        runner = BatchRunner(max_workers=2)
        with pytest.raises(DeadlineError):
            runner.run(
                [BatchJob(tiny_soc, w, 2) for w in (4, 5)],
                point_timeout=1.5,
            )

    def test_generous_deadline_changes_nothing(self, tiny_soc):
        jobs = [BatchJob(tiny_soc, w, 2) for w in (4, 5)]
        plain = BatchRunner(max_workers=2).run(jobs)
        timed = BatchRunner(max_workers=2, point_timeout=120).run(jobs)
        assert timed == plain


def full_disk_for(monkeypatch, full=lambda directory: True):
    """Make the store's temp-file creation fail with ENOSPC wherever
    ``full(directory)`` holds; elsewhere it works as usual."""
    import repro.service.store as store

    real = tempfile.mkstemp

    def mkstemp(*args, dir=None, **kwargs):
        if full(Path(dir)):
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(*args, dir=dir, **kwargs)

    monkeypatch.setattr(
        store, "tempfile", types.SimpleNamespace(mkstemp=mkstemp)
    )


class TestStoreFailures:
    """A failed store write costs durability, never a grid point, and
    the service health block shows every store fault."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_table_writes_leave_the_grid_intact(
        self, d695, tmp_path, monkeypatch, workers
    ):
        jobs = [BatchJob(d695, width, 2) for width in (8, 10)]
        reference = BatchRunner(max_workers=1).run(jobs)
        full_disk_for(monkeypatch)
        runner = BatchRunner(
            max_workers=workers, on_error="record",
            cache_dir=tmp_path / "tables",
        )
        assert runner.run(jobs) == reference
        assert runner.metrics.counter("store.write_errors").value > 0

    @staticmethod
    def grid(source):
        return GridSpec.from_axes([source], (4, 5), num_tams=2)

    def test_torn_memo_entry_shows_in_health(
        self, tiny_soc_source, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        grid = self.grid(tiny_soc_source)
        with ExplorationServer(
            max_workers=1, cache_dir=cache_dir
        ) as server:
            record = server.submit(grid)
            assert server.wait(record.job_id, timeout=300).status == "done"
        [entry] = GridMemo(cache_dir / "grid-memo").entries()
        entry.write_text(entry.read_text()[:40])  # torn mid-record
        with ExplorationServer(
            max_workers=1, cache_dir=cache_dir
        ) as reborn:
            replay = reborn.submit(grid)
            assert not replay.cached
            assert reborn.wait(replay.job_id, timeout=300).status == "done"
            health = reborn.info()["health"]
        assert entry.with_name(entry.name + ".bad").exists()
        assert health["quarantined_entries"] == 1
        assert health["status"] == "degraded"

    def test_failed_memo_write_is_counted(
        self, tiny_soc_source, tmp_path, monkeypatch
    ):
        full_disk_for(
            monkeypatch,
            full=lambda directory: directory.name == "grid-memo",
        )
        cache_dir = tmp_path / "cache"
        with ExplorationServer(
            max_workers=1, cache_dir=cache_dir
        ) as server:
            record = server.submit(self.grid(tiny_soc_source))
            assert server.wait(record.job_id, timeout=300).status == "done"
            health = server.info()["health"]
        assert len(GridMemo(cache_dir / "grid-memo")) == 0
        assert health["store_write_errors"] == 1
        assert health["status"] == "degraded"
