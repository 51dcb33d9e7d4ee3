"""Job-level fault tolerance of the batch engine."""

import threading

import pytest

import repro.engine.batch as batch
from repro.engine.batch import (
    BatchJob,
    BatchRunner,
    FailedPoint,
    grid_rows,
    split_results,
)
from repro.exceptions import ConfigurationError


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

    def test_grid_rows_renders_error_rows(self, tiny_soc):
        runner = BatchRunner(max_workers=1, on_error="record")
        grid = runner.run_grid([tiny_soc], (4,))
        # Force a failure row through the same renderer.
        failure = FailedPoint(
            job=bad_job(tiny_soc, width=5),
            error_type="ConfigurationError",
            error_message="boom",
            attempts=1,
        )
        rows = grid_rows(list(grid) + [(failure.job, failure)])
        assert rows[-1]["T"] == "-"
        assert "boom" in rows[-1]["partition"]
        assert rows[-1]["W"] == 5

    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            BatchRunner(on_error="ignore")
        with pytest.raises(ConfigurationError):
            BatchRunner(retries=-1)


class TestRetries:
    def test_transient_failure_is_retried_inline(
        self, tiny_soc, monkeypatch
    ):
        attempts = {"count": 0}
        original = batch.evaluate_point

        def flaky(*args, **kwargs):
            attempts["count"] += 1
            if attempts["count"] == 1:
                raise ConfigurationError("transient")
            return original(*args, **kwargs)

        monkeypatch.setattr(batch, "evaluate_point", flaky)
        runner = BatchRunner(max_workers=1, on_error="record", retries=1)
        [result] = runner.run([BatchJob(tiny_soc, 4, 2)])
        assert not isinstance(result, FailedPoint)
        assert attempts["count"] == 2

    def test_exhausted_retries_record_attempt_count(
        self, tiny_soc, monkeypatch
    ):
        def always_failing(*args, **kwargs):
            raise ConfigurationError("permanent")

        monkeypatch.setattr(batch, "evaluate_point", always_failing)
        runner = BatchRunner(max_workers=1, on_error="record", retries=2)
        [result] = runner.run([BatchJob(tiny_soc, 4, 2)])
        assert isinstance(result, FailedPoint)
        assert result.attempts == 3

    def test_exhausted_retries_raise_under_default_policy(
        self, tiny_soc, monkeypatch
    ):
        def always_failing(*args, **kwargs):
            raise ConfigurationError("permanent")

        monkeypatch.setattr(batch, "evaluate_point", always_failing)
        runner = BatchRunner(max_workers=1, retries=1)
        with pytest.raises(ConfigurationError):
            runner.run([BatchJob(tiny_soc, 4, 2)])


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

    def test_exhausted_pool_restarts_record_failed_points(
        self, tiny_soc
    ):
        from concurrent.futures.process import BrokenProcessPool

        runner = BatchRunner(
            max_workers=2, on_error="record", pool_restart_retries=0
        )
        # A broken pool with no restart budget must not raise under
        # the record policy: every unfinished point gets a structured
        # FailedPoint instead.
        import repro.engine.batch as batch_module

        class _AlwaysBroken:
            def __init__(self, *args, **kwargs):
                raise BrokenProcessPool("pool refused to start")

        jobs = [BatchJob(tiny_soc, w, 2) for w in (4, 5)]
        original = batch_module.ProcessPoolExecutor
        try:
            batch_module.ProcessPoolExecutor = _AlwaysBroken
            with pytest.raises(BrokenProcessPool):
                # Construction failure happens before dispatch: the
                # supervisor only guards the dispatch loop.
                runner.run(jobs)
        finally:
            batch_module.ProcessPoolExecutor = original

    def test_rejects_bad_supervision_knobs(self):
        with pytest.raises(ConfigurationError):
            BatchRunner(pool_restart_retries=-1)
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
